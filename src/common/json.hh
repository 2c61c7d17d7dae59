/**
 * @file
 * JSON string escaping shared by every JSON emitter (sweep reports,
 * interval series, campaign manifests and shards).
 */

#ifndef CDIR_COMMON_JSON_HH
#define CDIR_COMMON_JSON_HH

#include <cstdio>
#include <string>

namespace cdir {

/** Escape @p s for a JSON string body (quotes, backslashes, controls). */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

} // namespace cdir

#endif // CDIR_COMMON_JSON_HH
