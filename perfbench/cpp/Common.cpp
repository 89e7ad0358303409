//===- perfbench/cpp/Common.cpp -------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

using namespace rmdbench;

double rmdbench::secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

double rmdbench::msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double rmdbench::threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double rmdbench::processCpuSeconds(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Text;
  if (!std::getline(In, Text))
    return -1;
  // The command name (field 2) may hold spaces; fields resume after the
  // last ')'. utime and stime are fields 14 and 15.
  size_t Close = Text.rfind(')');
  if (Close == std::string::npos)
    return -1;
  std::istringstream Fields(Text.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && Fields >> Field; ++I) {
    if (I == 14)
      UTime = std::stoull(Field);
    if (I == 15)
      STime = std::stoull(Field);
  }
  return static_cast<double>(UTime + STime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double rmdbench::median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

double rmdbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

std::string rmdbench::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw std::runtime_error("cannot read " + Path);
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

uint64_t rmdbench::splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

void Report::line(const std::string &Name, double Value,
                  const std::string &Unit, const std::string &Note) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  Lines.push_back(Name + " = " + Buf + (Unit.empty() ? "" : " " + Unit) +
                  (Note.empty() ? "" : "  (" + Note + ")"));
}

void Report::expectEq(const std::string &What, uint64_t Got, uint64_t Want) {
  if (Got != Want)
    error(What + ": got " + std::to_string(Got) + ", recorded " +
          std::to_string(Want));
}

namespace {

/// Four small CPU-bound kernels that load a core in different ways: a
/// dependent chain of table reads and writes, four independent streams
/// of table reads, the streams with unpredictable branches, and
/// allocation churn. None of them touches the library, so no change to
/// the program moves them; a slower or faster host moves them all.
uint64_t dependentChain(std::vector<uint32_t> &Table, int Iters) {
  const uint32_t Mask = static_cast<uint32_t>(Table.size() - 1);
  uint64_t X = 88172645463325252ull, Acc = 0;
  for (int I = 0; I < Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint32_t Idx = static_cast<uint32_t>(X) & Mask;
    Acc += Table[Idx];
    Table[Idx ^ 1] = static_cast<uint32_t>(Acc);
    if ((X & 7) == 0)
      Acc = Acc * 3 + 1;
  }
  return Acc;
}

uint64_t parallelStreams(std::vector<uint32_t> &Table, int Iters,
                         bool Branchy) {
  const uint32_t Mask = static_cast<uint32_t>(Table.size() - 1);
  uint64_t X[4] = {88172645463325252ull, 1, 2, 3};
  uint64_t A[4] = {0, 0, 0, 0};
  for (int I = 0; I < Iters / 4; ++I)
    for (int J = 0; J < 4; ++J) {
      X[J] ^= X[J] << 13;
      X[J] ^= X[J] >> 7;
      X[J] ^= X[J] << 17;
      uint32_t Idx = static_cast<uint32_t>(X[J]) & Mask;
      A[J] += Table[Idx];
      if (Branchy && (X[J] & 1)) {
        A[J] ^= X[J] >> 3;
        Table[Idx] += 1;
      }
    }
  return A[0] + A[1] + A[2] + A[3];
}

uint64_t allocationChurn(int Iters) {
  uint64_t X = 88172645463325252ull, Acc = 0;
  for (int I = 0; I < Iters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    std::vector<uint32_t> V(8 + (X & 255));
    for (size_t J = 0; J < V.size(); ++J)
      V[J] = static_cast<uint32_t>(J * X);
    for (uint32_t W : V)
      Acc += (W & 3) ? W : 1;
  }
  return Acc;
}

} // namespace

double rmdbench::calibrationMs() {
  static std::vector<uint32_t> Table(1 << 15, 1); // 128 KiB: L2-resident
  Clock::time_point Start = Clock::now();
  uint64_t Acc = dependentChain(Table, 500000) +
                 parallelStreams(Table, 1000000, false) +
                 parallelStreams(Table, 300000, true) +
                 allocationChurn(10000);
  Table[0] += static_cast<uint32_t>(Acc);
  return msBetween(Start, Clock::now());
}

void Report::calibrate() { CalibrationMs.push_back(calibrationMs()); }

double Report::hostFactor() const {
  return kReferenceCalibrationMs / median(CalibrationMs);
}

void Report::endToEnd(double SetUpS, double UnitMs, double UnitCpuMs,
                      double WorkPerCpuS) {
  double F = hostFactor();
  line("host_factor", F, "",
       "reference " + std::to_string(kReferenceCalibrationMs).substr(0, 4) +
           " ms / median of " + std::to_string(CalibrationMs.size()) +
           " calibrations");
  set("setup_s", SetUpS * F, "s");
  set("unit_ms", UnitMs * F, "ms");
  set("unit_cpu_ms", UnitCpuMs * F, "ms");
  set("work_per_cpu_s", WorkPerCpuS / F, "1/s");
}
