#include "driver/cli.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dmt
{
namespace driver
{

namespace
{

[[noreturn]] void
reject(const char *argv0, UsageFn usage, const std::string &why)
{
    // dmtlint: allow(raw-logging) -- a usage error: the diagnostic
    // goes to stderr ahead of the binary's usage text, exit 2
    std::fprintf(stderr, "%s: %s\n", argv0, why.c_str());
    usage(argv0);
    std::exit(2);  // in case a usage() ever returns
}

} // namespace

std::uint64_t
parseUintFlag(const char *argv0, const std::string &flag,
              const std::string &token, std::uint64_t lo,
              std::uint64_t hi, UsageFn usage)
{
    std::uint64_t value = 0;
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || ec != std::errc() || ptr != end)
        reject(argv0, usage,
               flag + " expects an unsigned integer, got '" + token +
                   "'");
    if (value < lo)
        reject(argv0, usage,
               flag + " must be at least " + std::to_string(lo) +
                   ", got '" + token + "'");
    if (value > hi)
        reject(argv0, usage,
               flag + " must be at most " + std::to_string(hi) +
                   ", got '" + token + "'");
    return value;
}

double
parseScaleFlag(const char *argv0, const std::string &flag,
               const std::string &token, UsageFn usage)
{
    double denominator = 0.0;
    const char *end = token.data() + token.size();
    const auto [ptr, ec] =
        std::from_chars(token.data(), end, denominator);
    if (token.empty() || ec != std::errc() || ptr != end ||
        !(denominator > 0.0) || !std::isfinite(denominator))
        reject(argv0, usage,
               flag + " must be a positive number, got '" + token +
                   "'");
    return 1.0 / denominator;
}

std::pair<CampaignEnv, Design>
parseCellFlags(const char *argv0, const std::string &env,
               const std::string &design, UsageFn usage)
{
    for (const CampaignEnv e : {CampaignEnv::Native, CampaignEnv::Virt,
                                CampaignEnv::Nested}) {
        if (envId(e) != env)
            continue;
        std::string valid;
        for (const Design d : validDesigns(e)) {
            if (designId(d) == design)
                return {e, d};
            if (!valid.empty())
                valid += '|';
            valid += designId(d);
        }
        reject(argv0, usage,
               "--design '" + design + "' is not modelled in --env " +
                   env + " (expected " + valid + ")");
    }
    reject(argv0, usage,
           "--env expects native|virt|nested, got '" + env + "'");
}

} // namespace driver
} // namespace dmt
