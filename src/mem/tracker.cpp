#include "mem/tracker.h"

#include <cstdio>

namespace xgw::mem {

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::kMatrix:
      return "la/matrix";
    case Tag::kFft:
      return "fft";
    case Tag::kSpill:
      return "mem/spill";
    case Tag::kOther:
      return "other";
    case Tag::kCount:
      break;
  }
  return "?";
}

MemTracker& MemTracker::global() noexcept {
  static MemTracker t;
  return t;
}

std::string MemTracker::summary() const {
  std::string out = "memory tracker (bytes):\n";
  char line[160];
  for (int i = 0; i < kTagCount; ++i) {
    const Tag t = static_cast<Tag>(i);
    const TagStats s = tag(t);
    if (s.alloc_calls == 0 && s.current_bytes == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  %-20s current %12llu   peak %12llu   allocs %10llu\n",
                  tag_name(t),
                  static_cast<unsigned long long>(s.current_bytes),
                  static_cast<unsigned long long>(s.peak_bytes),
                  static_cast<unsigned long long>(s.alloc_calls));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  %-20s current %12llu   peak %12llu   allocs %10llu\n",
                "TOTAL", static_cast<unsigned long long>(current_bytes()),
                static_cast<unsigned long long>(peak_bytes()),
                static_cast<unsigned long long>(alloc_calls()));
  out += line;
  return out;
}

}  // namespace xgw::mem
