#pragma once

// Every observer a fabric can carry, attached together, and the
// differential assertion over two such sets — the observed leg of the
// backend-conformance suite. Observers only observe, so two fabrics that
// are observably identical must also hand their observers identical
// streams: tracer events, profiler cycles / recv edges / iteration marks,
// flight-recorder rings, sampler frames and netflow counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "telemetry/flightrec.hpp"
#include "telemetry/netmon.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/timeseries.hpp"
#include "wse/fabric.hpp"
#include "wse/trace.hpp"

namespace wss::testsupport {

/// Tracer, profiler, flight recorder, time-series sampler and net monitor
/// for one fabric, plus the watchdog window set alongside them.
struct ObserverSet {
  static constexpr std::uint64_t kSampleCycles = 16;
  static constexpr std::uint64_t kWatchdogCycles = 4096;

  ObserverSet(int width, int height)
      : profiler(width, height), flightrec(width, height, 64) {}

  /// Attach everything to `f` (the net monitor with the default flow
  /// table: every link counts under "control").
  void attach(wse::Fabric& f) {
    f.set_tracer(&tracer);
    f.set_profiler(&profiler);
    f.set_flight_recorder(&flightrec);
    f.set_sampler(&sampler);
    f.set_net_monitor(&netmon);
    f.set_watchdog(kWatchdogCycles);
  }

  wse::Tracer tracer{1 << 16};
  telemetry::Profiler profiler;
  telemetry::FlightRecorder flightrec;
  telemetry::TimeSeriesSampler sampler{kSampleCycles};
  telemetry::NetMonitor netmon;
};

/// Per-tile profiler state and the observed-cycle count.
inline void expect_profiles_identical(const telemetry::Profiler& want,
                                      const telemetry::Profiler& got,
                                      const std::string& label) {
  ASSERT_EQ(want.width(), got.width()) << label;
  ASSERT_EQ(want.height(), got.height()) << label;
  EXPECT_EQ(want.observed_cycles(), got.observed_cycles()) << label;
  for (int y = 0; y < want.height(); ++y) {
    for (int x = 0; x < want.width(); ++x) {
      const telemetry::TileProfile& a = want.tile(x, y);
      const telemetry::TileProfile& b = got.tile(x, y);
      const std::string at =
          label + " tile (" + std::to_string(x) + "," + std::to_string(y) +
          ")";
      ASSERT_EQ(a.configured, b.configured) << at;
      EXPECT_EQ(a.cycles, b.cycles) << at;
      EXPECT_EQ(a.compute_intervals, b.compute_intervals) << at;
      ASSERT_EQ(a.recvs.size(), b.recvs.size()) << at;
      for (std::size_t i = 0; i < a.recvs.size(); ++i) {
        EXPECT_EQ(a.recvs[i].recv_cycle, b.recvs[i].recv_cycle) << at;
        EXPECT_EQ(a.recvs[i].send_cycle, b.recvs[i].send_cycle) << at;
        EXPECT_EQ(a.recvs[i].src_x, b.recvs[i].src_x) << at;
        EXPECT_EQ(a.recvs[i].src_y, b.recvs[i].src_y) << at;
      }
      ASSERT_EQ(a.iter_marks.size(), b.iter_marks.size()) << at;
      for (std::size_t i = 0; i < a.iter_marks.size(); ++i) {
        EXPECT_EQ(a.iter_marks[i].iteration, b.iter_marks[i].iteration) << at;
        EXPECT_EQ(a.iter_marks[i].cycle, b.iter_marks[i].cycle) << at;
      }
      EXPECT_EQ(a.recvs_dropped, b.recvs_dropped) << at;
    }
  }
}

/// The tracer streams match event for event, capacity drops included.
inline void expect_traces_identical(const wse::Tracer& want,
                                    const wse::Tracer& got,
                                    const std::string& label) {
  EXPECT_EQ(want.dropped(), got.dropped()) << label;
  ASSERT_EQ(want.events().size(), got.events().size()) << label;
  for (std::size_t i = 0; i < want.events().size(); ++i) {
    const wse::TraceEvent& a = want.events()[i];
    const wse::TraceEvent& b = got.events()[i];
    const std::string at = label + " trace event " + std::to_string(i);
    EXPECT_EQ(a.cycle, b.cycle) << at;
    EXPECT_EQ(a.tile_x, b.tile_x) << at;
    EXPECT_EQ(a.tile_y, b.tile_y) << at;
    EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << at;
    EXPECT_EQ(a.label, b.label) << at;
  }
}

/// Every observer of `got` recorded exactly what its twin in `want` did.
inline void expect_observers_identical(const ObserverSet& want,
                                       const ObserverSet& got,
                                       const std::string& label) {
  // At least one stream must be non-empty, or the comparison is vacuous.
  ASSERT_GT(want.profiler.observed_cycles(), 0u) << label;
  expect_traces_identical(want.tracer, got.tracer, label);
  expect_profiles_identical(want.profiler, got.profiler, label);

  const int w = want.flightrec.width();
  const int h = want.flightrec.height();
  ASSERT_EQ(w, got.flightrec.width()) << label;
  ASSERT_EQ(h, got.flightrec.height()) << label;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const std::string at =
          label + " tile (" + std::to_string(x) + "," + std::to_string(y) +
          ")";
      EXPECT_EQ(want.flightrec.total_events(x, y),
                got.flightrec.total_events(x, y))
          << at;
      EXPECT_EQ(want.flightrec.events(x, y), got.flightrec.events(x, y))
          << at << " flight-recorder ring";
      for (int d = 0; d < 4; ++d) {
        const auto dir = static_cast<wse::Dir>(d);
        const std::string link = at + " dir " + std::to_string(d);
        for (int c = 0; c < wse::kNumColors; ++c) {
          EXPECT_EQ(want.netmon.words_at(x, y, dir, c),
                    got.netmon.words_at(x, y, dir, c))
              << link << " color " << c;
          EXPECT_EQ(want.netmon.blocked_at(x, y, dir, c),
                    got.netmon.blocked_at(x, y, dir, c))
              << link << " color " << c;
          EXPECT_EQ(want.netmon.peak_queue_at(x, y, dir, c),
                    got.netmon.peak_queue_at(x, y, dir, c))
              << link << " color " << c;
        }
        EXPECT_EQ(want.netmon.link_stall_cycles(x, y, dir),
                  got.netmon.link_stall_cycles(x, y, dir))
            << link;
        EXPECT_EQ(want.netmon.link_peak_queue(x, y, dir),
                  got.netmon.link_peak_queue(x, y, dir))
            << link;
      }
    }
  }

  EXPECT_EQ(want.sampler.frames_dropped(), got.sampler.frames_dropped())
      << label;
  ASSERT_EQ(want.sampler.frames().size(), got.sampler.frames().size())
      << label;
  for (std::size_t i = 0; i < want.sampler.frames().size(); ++i) {
    EXPECT_TRUE(want.sampler.frames()[i] == got.sampler.frames()[i])
        << label << " sampler frame " << i << " (cycle "
        << want.sampler.frames()[i].cycle << ")";
  }
}

} // namespace wss::testsupport
