#pragma once

// Scoped environment-variable save/unset/restore for tests whose behaviour
// is env-sensitive (observer auto-attachment, backend selection, thread
// counts). Constructing a guard unsets the variable; the destructor
// restores whatever was there. The backend-conformance suite leans on this:
// CI exports WSS_WATCHDOG_CYCLES / WSS_POSTMORTEM_DIR for the main test
// run, and a differential must control exactly which observers, backend
// and thread count each leg runs with (and must not write artifacts).

#include <cstdlib>
#include <string>

namespace wss::testsupport {

class EnvGuard {
public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* cur = std::getenv(name);
    if (cur != nullptr) {
      had_ = true;
      saved_ = cur;
    }
    ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;
  void set(const char* value) { ::setenv(name_, value, 1); }

private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

/// Scrub every variable that can attach an observer to (or re-route) a
/// fabric mid-test, so each leg of a differential runs exactly the
/// configuration the test gives it.
struct CleanSimEnv {
  EnvGuard watchdog{"WSS_WATCHDOG_CYCLES"};
  EnvGuard postmortem{"WSS_POSTMORTEM_DIR"};
  EnvGuard sample{"WSS_SAMPLE_CYCLES"};
  EnvGuard ledger{"WSS_LEDGER_DIR"};
  EnvGuard timeseries{"WSS_TIMESERIES_OUT"};
  EnvGuard backend{"WSS_SIM_BACKEND"};
  EnvGuard threads{"WSS_SIM_THREADS"};
  EnvGuard netflows{"WSS_NETFLOWS"};
  EnvGuard netflows_out{"WSS_NETFLOWS_OUT"};
  EnvGuard netflows_topk{"WSS_NETFLOWS_TOPK"};
};

} // namespace wss::testsupport
