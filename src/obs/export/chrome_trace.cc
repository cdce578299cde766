#include "obs/export/chrome_trace.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/string_util.h"
#include "obs/diag/flight_recorder.h"
#include "obs/json_util.h"

namespace dd::obs {

namespace {

using diag::EventType;
using diag::RingEvent;

constexpr int kPid = 1;

struct ThreadTrack {
  int slot = 0;
  int tid = 0;
  std::vector<RingEvent> events;
};

struct TrackCollector : diag::RingVisitor {
  std::vector<ThreadTrack> tracks;
  void Thread(int slot, int tid, std::uint64_t) override {
    tracks.push_back({slot, tid, {}});
  }
  void Event(const RingEvent& event) override {
    if (event.type != EventType::kSpanBegin) {
      tracks.back().events.push_back(event);
    }
  }
};

bool IsInterval(const RingEvent& event) {
  return event.type == EventType::kSpanEnd ||
         event.type == EventType::kPoolChunk ||
         event.type == EventType::kPoolInvocation;
}

// Start of the interval an event covers: span ends carry their elapsed
// time, pool events their start; instants are points.
std::uint64_t StartNs(const RingEvent& event) {
  if (event.type == EventType::kSpanEnd) return event.t_ns - event.arg[0];
  return IsInterval(event) ? event.arg[0] : event.t_ns;
}

void AppendEvent(const RingEvent& event, int tid, std::uint64_t t0,
                 std::string* out) {
  const std::string name = JsonEscape(
      event.name[0] != '\0' ? event.name : diag::EventTypeName(event.type));
  const double ts_us = static_cast<double>(StartNs(event) - t0) * 1e-3;
  const double dur_us =
      static_cast<double>(event.t_ns - StartNs(event)) * 1e-3;
  std::string args;
  switch (event.type) {
    case EventType::kSpanEnd:
      break;
    case EventType::kPoolChunk:
      args = StrFormat(
          "\"invocation\":%llu,\"chunk\":%llu,\"begin\":%llu,\"end\":%llu,"
          "\"cpu_us\":%.3f,\"caller\":%s",
          static_cast<unsigned long long>(event.arg[1]),
          static_cast<unsigned long long>(event.arg[2]),
          static_cast<unsigned long long>(event.arg[3]),
          static_cast<unsigned long long>(event.arg[4]),
          static_cast<double>(event.arg[5]) * 1e-3,
          event.caller ? "true" : "false");
      break;
    case EventType::kPoolInvocation:
      args = StrFormat(
          "\"invocation\":%llu,\"chunks\":%llu,\"count\":%llu,"
          "\"threads\":%llu",
          static_cast<unsigned long long>(event.arg[1]),
          static_cast<unsigned long long>(event.arg[2]),
          static_cast<unsigned long long>(event.arg[3]),
          static_cast<unsigned long long>(event.arg[4]));
      break;
    default:
      args = StrFormat("\"arg0\":%llu,\"arg1\":%llu",
                       static_cast<unsigned long long>(event.arg[0]),
                       static_cast<unsigned long long>(event.arg[1]));
      break;
  }
  *out += StrFormat(
      ",{\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,",
      name.c_str(), diag::EventTypeName(event.type), kPid, tid, ts_us);
  *out += IsInterval(event)
              ? StrFormat("\"ph\":\"X\",\"dur\":%.3f", dur_us)
              : std::string("\"ph\":\"i\",\"s\":\"t\"");
  *out += ",\"args\":{" + args + "}}";
}

}  // namespace

std::string ChromeTraceJson() {
  TrackCollector collector;
  const std::uint64_t dropped = diag::ReadRings(collector);
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const ThreadTrack& track : collector.tracks) {
    for (const RingEvent& event : track.events) {
      t0 = std::min(t0, StartNs(event));
    }
  }
  std::string out = StrFormat(
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":%llu},"
      "\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
      "\"tid\":0,\"args\":{\"name\":\"ddthreshold\"}}",
      static_cast<unsigned long long>(dropped), kPid);
  for (const ThreadTrack& track : collector.tracks) {
    if (track.events.empty()) continue;
    out += StrFormat(
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"name\":\"thread %d\"}}",
        kPid, track.tid, track.slot);
    for (const RingEvent& event : track.events) {
      AppendEvent(event, track.tid, t0, &out);
    }
  }
  out += "]}";
  return out;
}

Status WriteChromeTrace(const std::string& path) {
  return WriteJsonFile(ChromeTraceJson(), path);
}

}  // namespace dd::obs
