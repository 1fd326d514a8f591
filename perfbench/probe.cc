#include "probe.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>

namespace perfbench {

Probe::Probe(int ranks, bool traced)
    : traced_(traced),
      t0_(std::chrono::steady_clock::now()),
      spans_(static_cast<std::size_t>(ranks)),
      open_(static_cast<std::size_t>(ranks)) {}

double Probe::hostNow() const {
  if (!traced_) return 0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::int64_t Probe::spanCount() const {
  std::int64_t n = 0;
  for (const auto& s : spans_) n += static_cast<std::int64_t>(s.size());
  return n;
}

int Probe::begin(int rank, double now, const char* layer, const char* name,
                 bool collective) {
  auto& spans = spans_[static_cast<std::size_t>(rank)];
  auto& open = open_[static_cast<std::size_t>(rank)];
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = open.empty() ? -1 : open.back();
  s.collective = collective;
  s.v0 = now;
  s.h0 = hostNow();
  spans.push_back(s);
  const int index = static_cast<int>(spans.size()) - 1;
  open.push_back(index);
  return index;
}

void Probe::end(int rank, int index, double now, std::int64_t calls) {
  Span& s = spans_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(
      index)];
  s.v1 = now;
  s.h1 = hostNow();
  s.calls = calls;
  auto& open = open_[static_cast<std::size_t>(rank)];
  if (!open.empty() && open.back() == index) open.pop_back();
}

namespace {

bool named(const Span& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

bool isPhase(const Span& s) { return std::strcmp(s.layer, "phase") == 0; }

template <typename Begin, typename End>
double extent(const Probe& p, const char* name, Begin b, End e) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (int r = 0; r < p.ranks(); ++r) {
    for (const Span& s : p.spans(r)) {
      if (!named(s, name)) continue;
      lo = std::min(lo, b(s));
      hi = std::max(hi, e(s));
    }
  }
  return hi >= lo ? hi - lo : 0;
}

}  // namespace

double virtualExtent(const Probe& p, const char* name) {
  return extent(
      p, name, [](const Span& s) { return s.v0; },
      [](const Span& s) { return s.v1; });
}

double hostExtent(const Probe& p, const char* name) {
  return extent(
      p, name, [](const Span& s) { return s.h0; },
      [](const Span& s) { return s.h1; });
}

std::vector<double> perRankTotal(const Probe& p, const char* name) {
  std::vector<double> out;
  for (int r = 0; r < p.ranks(); ++r) {
    double sum = 0;
    bool any = false;
    for (const Span& s : p.spans(r)) {
      if (!named(s, name)) continue;
      sum += s.v1 - s.v0;
      any = true;
    }
    if (any) out.push_back(sum);
  }
  return out;
}

namespace {

/// Per-rank wait/busy sums over collective spans accepted by `pick`.
template <typename Pick>
Split split(const Probe& p, const Pick& pick) {
  using Key = std::pair<std::string, int>;  // (name, k-th call on the rank)
  auto forEach = [&](auto&& fn) {
    for (int r = 0; r < p.ranks(); ++r) {
      std::map<std::string, int> seen;
      for (const Span& s : p.spans(r)) {
        if (s.collective && pick(s)) fn(r, s, Key{s.name, seen[s.name]++});
      }
    }
  };
  std::map<Key, double> latest;
  forEach([&](int, const Span& s, const Key& k) {
    auto [it, fresh] = latest.try_emplace(k, s.v0);
    if (!fresh) it->second = std::max(it->second, s.v0);
  });
  std::vector<double> wait(static_cast<std::size_t>(p.ranks()), 0);
  std::vector<double> busy(static_cast<std::size_t>(p.ranks()), 0);
  std::vector<bool> took(static_cast<std::size_t>(p.ranks()), false);
  forEach([&](int r, const Span& s, const Key& k) {
    const double last = latest.at(k);
    wait[static_cast<std::size_t>(r)] += last - s.v0;
    busy[static_cast<std::size_t>(r)] += s.v1 - last;
    took[static_cast<std::size_t>(r)] = true;
  });
  Split out;
  for (std::size_t r = 0; r < took.size(); ++r) {
    if (!took[r]) continue;
    out.wait.push_back(wait[r]);
    out.busy.push_back(busy[r]);
  }
  return out;
}

}  // namespace

Split collectiveSplit(const Probe& p, const char* name) {
  return split(p, [name](const Span& s) { return named(s, name); });
}

std::vector<double> entrySkew(const Probe& p) {
  return split(p, [](const Span&) { return true; }).wait;
}

std::int64_t callCount(const Probe& p) {
  std::int64_t n = 0;
  for (int r = 0; r < p.ranks(); ++r) {
    for (const Span& s : p.spans(r)) {
      if (!isPhase(s)) n += s.calls;
    }
  }
  return n;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void appendChromeTrace(const Probe& p, int pid, const std::string& label,
                       std::string& out) {
  char buf[512];
  auto emit = [&out](const char* s) {
    if (!out.empty()) out += ",\n";
    out += s;
  };
  std::snprintf(buf, sizeof buf,
                "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                "\"args\":{\"name\":\"%s\"}}",
                pid, label.c_str());
  emit(buf);
  for (int r = 0; r < p.ranks(); ++r) {
    if (p.spans(r).empty()) continue;
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"name\":\"rank %d\"}}",
                  pid, r, r);
    emit(buf);
    for (const Span& s : p.spans(r)) {
      std::snprintf(
          buf, sizeof buf,
          "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,"
          "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"calls\":%lld,"
          "\"parent\":%d,\"host_begin_us\":%.1f,\"host_us\":%.1f}}",
          s.name, s.layer, pid, r, s.v0 * 1e6, (s.v1 - s.v0) * 1e6,
          static_cast<long long>(s.calls), s.parent, s.h0 * 1e6,
          (s.h1 - s.h0) * 1e6);
      emit(buf);
    }
  }
}

}  // namespace perfbench
