// JSON string escaping shared by the obs exporters (run reports,
// Chrome traces, sampler frames). Same rules as core/result_io's
// JsonEscape; kept here so obs stays below core in the dependency
// order. Also the one file writer for the exporters' JSON documents.

#ifndef DD_OBS_JSON_UTIL_H_
#define DD_OBS_JSON_UTIL_H_

#include <cstdio>
#include <string>

#include "common/status.h"
#include "common/string_util.h"

namespace dd::obs {

inline std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

// Writes `json` plus a trailing newline into `path` (overwrites).
inline Status WriteJsonFile(const std::string& json, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool newline = std::fputc('\n', file) != EOF;
  if (std::fclose(file) != 0 || written != json.size() || !newline) {
    return Status::IoError("short write to " + path);
  }
  return Status::Ok();
}

}  // namespace dd::obs

#endif  // DD_OBS_JSON_UTIL_H_
