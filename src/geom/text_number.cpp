#include "geom/text_number.h"

#include <charconv>
#include <cmath>
#include <limits>

namespace cong93 {

std::string fmt_double(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

bool parse_double(std::string_view tok, double& out)
{
    const char* last = tok.data() + tok.size();
    const auto res = std::from_chars(tok.data(), last, out);
    return res.ec == std::errc{} && res.ptr == last && std::isfinite(out);
}

bool parse_int32(std::string_view tok, std::int32_t& out)
{
    long long v = 0;
    const char* last = tok.data() + tok.size();
    const auto res = std::from_chars(tok.data(), last, v);
    if (res.ec != std::errc{} || res.ptr != last) return false;
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max())
        return false;
    out = static_cast<std::int32_t>(v);
    return true;
}

bool parse_count(std::string_view tok, std::size_t& out)
{
    unsigned long long v = 0;
    const char* last = tok.data() + tok.size();
    const auto res = std::from_chars(tok.data(), last, v);
    if (res.ec != std::errc{} || res.ptr != last) return false;
    out = static_cast<std::size_t>(v);
    return true;
}

}  // namespace cong93
