// Chrome trace-event JSON exporter: renders the flight recorder's
// per-thread event rings (obs/diag/flight_recorder.h) as a
// {"traceEvents":[...]} document loadable by Perfetto and
// chrome://tracing. Every thread that recorded gets its own track (tid
// = its OS thread id), and every event sits at its measured timestamp,
// rebased so the earliest event starts at t=0:
//   * each finished TraceSpan is one complete ("ph":"X") event from its
//     real begin to its real end, so nested spans nest in time;
//   * each pool chunk is an "X" event named by its phase on the thread
//     that ran it, with the invocation, chunk, item range and thread-CPU
//     time in args; each whole ParallelFor is an "X" event on the
//     calling thread;
//   * instants (batches, determinations, approx rounds, serve progress,
//     stalls) are thread-scoped "ph":"i" events.
// Events the rings lost to wrap-around are reported as
// "otherData":{"dropped_events":N}. Spans still open when the document
// is rendered are not drawn. The aggregated span tree stays in the run
// report (obs/report.h).

#ifndef DD_OBS_EXPORT_CHROME_TRACE_H_
#define DD_OBS_EXPORT_CHROME_TRACE_H_

#include <string>

#include "common/status.h"

namespace dd::obs {

// Renders the current ring contents as a complete Chrome trace JSON
// document. Normal context only (allocates).
std::string ChromeTraceJson();

// Writes ChromeTraceJson() into `path` (overwrites).
Status WriteChromeTrace(const std::string& path);

}  // namespace dd::obs

#endif  // DD_OBS_EXPORT_CHROME_TRACE_H_
