//===- perfbench/cpp/QueryProbe.cpp ---------------------------------------===//

#include "QueryProbe.h"

#include "Trace.h"

using namespace rmd;
using namespace rmdbench;

namespace {

void spinFor(uint64_t Ns) {
  Clock::time_point End = Clock::now() + std::chrono::nanoseconds(Ns);
  while (Clock::now() < End) {
  }
}

double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

class ProbeModule final : public ContentionQueryModule {
public:
  ProbeModule(std::unique_ptr<ContentionQueryModule> Inner, QueryProbe &P)
      : Inner(std::move(Inner)), P(P) {
    // The inner module publishes its own work to the stats registry.
    PublishWorkToStats = false;
    sync();
  }
  ~ProbeModule() override { P.WorkUnits += Inner->counters().totalUnits(); }

  bool check(OpId Op, int Cycle) override {
    if (P.CheckDelayNs)
      spinFor(P.CheckDelayNs);
    return timed(P.CheckNs, P.CheckCalls,
                 [&] { return Inner->check(Op, Cycle); });
  }
  void assign(OpId Op, int Cycle, InstanceId Instance) override {
    timed(P.AssignNs, P.AssignCalls, [&] {
      Inner->assign(Op, Cycle, Instance);
      return 0;
    });
  }
  void free(OpId Op, int Cycle, InstanceId Instance) override {
    timed(P.FreeNs, P.FreeCalls, [&] {
      Inner->free(Op, Cycle, Instance);
      return 0;
    });
  }
  void assignAndFree(OpId Op, int Cycle, InstanceId Instance,
                     std::vector<InstanceId> &Evicted) override {
    timed(P.AssignFreeNs, P.AssignFreeCalls, [&] {
      Inner->assignAndFree(Op, Cycle, Instance, Evicted);
      return 0;
    });
  }
  int checkWithAlternatives(const std::vector<OpId> &Alternatives,
                            int Cycle) override {
    // The inner module may answer with one pass or several checks; it
    // accounts them as check calls, and so does the probe.
    uint64_t Before = Inner->counters().CheckCalls;
    Clock::time_point Start = P.Timed ? Clock::now() : Clock::time_point();
    int Found = Inner->checkWithAlternatives(Alternatives, Cycle);
    if (P.Timed)
      P.CheckNs += nsBetween(Start, Clock::now());
    uint64_t Checks = Inner->counters().CheckCalls - Before;
    if (P.CheckDelayNs)
      spinFor(P.CheckDelayNs * Checks);
    P.CheckCalls += Checks;
    sync();
    return Found;
  }
  void reset() override {
    P.WorkUnits += Inner->counters().totalUnits();
    Inner->reset();
    sync();
  }

private:
  void sync() { Counters = Inner->counters(); }

  template <typename Fn>
  auto timed(double &Ns, uint64_t &Calls, Fn &&F) -> decltype(F()) {
    ++Calls;
    if (!P.Timed) {
      auto R = F();
      sync();
      return R;
    }
    Clock::time_point Start = Clock::now();
    auto R = F();
    Ns += nsBetween(Start, Clock::now());
    sync();
    return R;
  }

  std::unique_ptr<ContentionQueryModule> Inner;
  QueryProbe &P;
};

} // namespace

void QueryProbe::publish(Report &Out, const std::string &Prefix) const {
  auto perCall = [](double Ns, uint64_t Calls) {
    return Calls ? Ns / static_cast<double>(Calls) : 0.0;
  };
  double PerPass = Passes ? 1.0 / static_cast<double>(Passes) : 0.0;
  Out.set(Prefix + "check_ns", perCall(CheckNs, CheckCalls), "ns");
  Out.set(Prefix + "assign_ns", perCall(AssignNs, AssignCalls), "ns");
  Out.set(Prefix + "assign_free_ns", perCall(AssignFreeNs, AssignFreeCalls),
          "ns");
  Out.set(Prefix + "free_ns", perCall(FreeNs, FreeCalls), "ns");
  Out.set(Prefix + "calls", static_cast<double>(calls()) * PerPass, "count");
  Out.set(Prefix + "work_units", static_cast<double>(WorkUnits) * PerPass,
          "count");
}

std::string QueryProbe::argsJson() const {
  return "\"check_calls\": " + std::to_string(CheckCalls) +
         ", \"check_ms\": " + std::to_string(CheckNs / 1e6) +
         ", \"assign_calls\": " + std::to_string(AssignCalls) +
         ", \"assign_ms\": " + std::to_string(AssignNs / 1e6) +
         ", \"assign_free_calls\": " + std::to_string(AssignFreeCalls) +
         ", \"assign_free_ms\": " + std::to_string(AssignFreeNs / 1e6) +
         ", \"free_calls\": " + std::to_string(FreeCalls) +
         ", \"free_ms\": " + std::to_string(FreeNs / 1e6) +
         ", \"builds\": " + std::to_string(Builds) +
         ", \"build_ms\": " + std::to_string(BuildMs);
}

std::unique_ptr<ContentionQueryModule>
rmdbench::probeModule(std::unique_ptr<ContentionQueryModule> Inner,
                      QueryProbe &Probe) {
  return std::make_unique<ProbeModule>(std::move(Inner), Probe);
}

std::function<std::unique_ptr<ContentionQueryModule>(QueryConfig)>
rmdbench::probedFactory(
    std::function<std::unique_ptr<ContentionQueryModule>(QueryConfig)> Inner,
    QueryProbe &Probe) {
  return [Inner = std::move(Inner), &Probe](QueryConfig Config)
             -> std::unique_ptr<ContentionQueryModule> {
    Clock::time_point Start = Clock::now();
    std::unique_ptr<ContentionQueryModule> M =
        std::make_unique<ProbeModule>(Inner(Config), Probe);
    ++Probe.Builds;
    if (Probe.Timed) {
      Clock::time_point End = Clock::now();
      Probe.BuildMs += msBetween(Start, End);
      if (Probe.Trace)
        Probe.Trace->span("build " + Probe.Label, "query", Start, End, 0,
                          "\"ii\": " + std::to_string(Config.ModuloII));
    }
    return M;
  };
}
