//===- perfbench/cpp/Trace.cpp --------------------------------------------===//

#include "Trace.h"

#include <cstdio>
#include <fstream>

using namespace rmdbench;

void TraceRecorder::span(std::string Name, const char *Category,
                         Clock::time_point Start, Clock::time_point End,
                         unsigned Lane, std::string Args) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Spans.size() >= MaxSpans) {
    ++Dropped;
    return;
  }
  Spans.push_back(Span{std::move(Name), Category,
                       msBetween(Origin, Start) * 1e3,
                       msBetween(Start, End) * 1e3, Lane, std::move(Args)});
}

bool TraceRecorder::write(const std::string &Path,
                          const std::string &MetaJson) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"displayTimeUnit\": \"ms\",\n\"otherData\": " << MetaJson
      << ",\n\"droppedSpans\": " << Dropped << ",\n\"traceEvents\": [\n";
  char Buf[96];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf), "\"ts\": %.3f, \"dur\": %.3f, ",
                  S.StartUs, S.DurUs);
    Out << "{\"name\": \"" << jsonEscape(S.Name) << "\", \"cat\": \""
        << S.Category << "\", \"ph\": \"X\", " << Buf
        << "\"pid\": 1, \"tid\": " << S.Lane << ", \"args\": {" << S.Args
        << "}}" << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}

std::string rmdbench::jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}
