#include "workloads/trace_file.hh"

#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace dmt
{

namespace
{
constexpr char magic[8] = {'D', 'M', 'T', 'T', 'R', 'A', 'C', 'E'};
} // namespace

void
recordTrace(TraceSource &source, std::uint64_t count,
            const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open trace file '%s' for writing",
              path.c_str());
    // A short write (disk full, quota, I/O error) must fail loudly
    // here, not as a "truncated trace" at the next load.
    std::uint64_t offset = 0;
    auto write = [&](const void *data, std::size_t bytes) {
        if (std::fwrite(data, 1, bytes, f) != bytes) {
            std::fclose(f);
            fatal("short write to trace file '%s' at byte offset "
                  "%llu (disk full?)",
                  path.c_str(),
                  static_cast<unsigned long long>(offset));
        }
        offset += bytes;
    };
    write(magic, sizeof(magic));
    write(&count, sizeof(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        const Addr va = source.next();
        write(&va, sizeof(va));
    }
    if (std::fclose(f) != 0)
        fatal("error closing trace file '%s' after %llu bytes "
              "(write-back failed?)",
              path.c_str(), static_cast<unsigned long long>(offset));
}

FileTrace::FileTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open trace file '%s'", path.c_str());
    char head[8];
    std::uint64_t count = 0;
    if (std::fread(head, 1, sizeof(head), f) != sizeof(head) ||
        std::memcmp(head, magic, sizeof(magic)) != 0) {
        std::fclose(f);
        fatal("'%s' is not a DMT trace file", path.c_str());
    }
    if (std::fread(&count, sizeof(count), 1, f) != 1) {
        std::fclose(f);
        fatal("'%s': truncated header", path.c_str());
    }
    if (count == 0) {
        std::fclose(f);
        fatal("'%s': empty trace", path.c_str());
    }
    // Never trust the header's count for the allocation size: a
    // corrupt header would otherwise trigger a multi-GB resize (or
    // std::bad_alloc). Bound it by what the file can actually hold.
    const long headerBytes = std::ftell(f);
    if (headerBytes < 0 || std::fseek(f, 0, SEEK_END) != 0) {
        std::fclose(f);
        fatal("'%s': cannot determine trace file size",
              path.c_str());
    }
    const long fileBytes = std::ftell(f);
    if (fileBytes < 0) {
        std::fclose(f);
        fatal("'%s': cannot determine trace file size",
              path.c_str());
    }
    const std::uint64_t bodyBytes =
        static_cast<std::uint64_t>(fileBytes - headerBytes);
    if (count > bodyBytes / sizeof(Addr)) {
        std::fclose(f);
        fatal("'%s': header claims %llu addresses but the file only "
              "holds %llu (corrupt or truncated trace)",
              path.c_str(), static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(bodyBytes /
                                              sizeof(Addr)));
    }
    if (std::fseek(f, headerBytes, SEEK_SET) != 0) {
        std::fclose(f);
        fatal("'%s': seek failed", path.c_str());
    }
    addrs_.resize(count);
    if (std::fread(addrs_.data(), sizeof(Addr), count, f) != count) {
        std::fclose(f);
        fatal("'%s': truncated trace body", path.c_str());
    }
    std::fclose(f);
}

Addr
FileTrace::next()
{
    const Addr va = addrs_[cursor_];
    cursor_ = (cursor_ + 1) % addrs_.size();
    return va;
}

} // namespace dmt
