//===- perfbench/Trace.h - In-memory spans around layer entry points -------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The benchmark wraps each call into a
/// layer's public entry point in a span: name, start, end, parent span and
/// request id. Spans stay in memory and are written out as JSON lines when
/// the run ends. A layer's self time is its span's duration minus the part
/// its child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PERFBENCH_TRACE_H
#define CSDF_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  /// Index of the parent span, -1 for a request's root span.
  int Parent = -1;
  std::uint64_t Request = 0;
  /// Free-form tag, e.g. the cache tier that answered a serve request.
  std::string Label;

  double us() const { return EndUs - StartUs; }
};

class Tracer {
public:
  /// Opens the root span of request \p Request.
  int beginRequest(std::uint64_t Request) {
    Current = Request;
    return begin("request", -1);
  }

  int begin(const std::string &Name, int Parent) {
    Spans.push_back({Name, nowUs(), 0, Parent, Current, ""});
    return static_cast<int>(Spans.size()) - 1;
  }

  void end(int Id) { Spans[Id].EndUs = nowUs(); }

  /// Runs \p Fn inside a span named \p Name under \p Parent.
  template <typename Fn> auto span(const std::string &Name, int Parent, Fn &&F) {
    struct Closer {
      Tracer &T;
      int Id;
      ~Closer() { T.end(Id); }
    } C{*this, begin(Name, Parent)};
    return F();
  }

  Span &operator[](int Id) { return Spans[Id]; }
  const std::vector<Span> &spans() const { return Spans; }

  /// Summed self time per span name, in microseconds.
  std::map<std::string, double> selfTimes() const {
    std::map<std::string, double> Self;
    for (const Span &S : Spans)
      Self[S.Name] += S.us();
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[Spans[S.Parent].Name] -= S.us();
    return Self;
  }

  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out.setf(std::ios::fixed);
    Out.precision(3);
    for (const Span &S : Spans)
      Out << "{\"request\": " << S.Request << ", \"name\": \"" << S.Name
          << "\", \"label\": \"" << S.Label << "\", \"parent\": " << S.Parent
          << ", \"start_us\": " << S.StartUs << ", \"end_us\": " << S.EndUs
          << "}\n";
    return static_cast<bool>(Out);
  }

private:
  std::vector<Span> Spans;
  std::uint64_t Current = 0;
};

} // namespace perfbench

#endif // CSDF_PERFBENCH_TRACE_H
