#include "queue/marking_rule.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <system_error>
#include <utility>
#include <vector>

namespace dtdctcp::queue {

namespace {

constexpr double kMicros = 1e6;  // label times are in microseconds
constexpr double kPositive = std::numeric_limits<double>::min();
constexpr double kFinite = std::numeric_limits<double>::max();
using Seed = std::uint64_t;

constexpr std::pair<const char*, ThresholdUnit> kUnits[] = {
    {"packets", ThresholdUnit::kPackets}, {"bytes", ThresholdUnit::kBytes}};
constexpr std::pair<const char*, MarkPoint> kMarkPoints[] = {
    {"arrival", MarkPoint::kArrival}, {"dequeue", MarkPoint::kDequeue}};
constexpr std::pair<const char*, HysteresisVariant> kVariants[] = {
    {"trend-peak", HysteresisVariant::kTrendPeak},
    {"drain-to-start", HysteresisVariant::kDrainToStart},
    {"half-band", HysteresisVariant::kHalfBand}};
constexpr std::pair<const char*, bool> kFlags[] = {{"0", false}, {"1", true}};

template <class E, std::size_t N>
const char* name_of(E value, const std::pair<const char*, E> (&names)[N]) {
  for (const auto& [name, v] : names) {
    if (v == value) return name;
  }
  return "?";
}

template <class E, std::size_t N>
bool assign_name(E& field, std::string_view text,
                 const std::pair<const char*, E> (&names)[N]) {
  for (const auto& [name, v] : names) {
    if (text == name) {
      field = v;
      return true;
    }
  }
  return false;
}

template <class Field, class Parsed>
bool assign(Field& field, const std::optional<Parsed>& parsed) {
  if (!parsed) return false;
  field = *parsed;
  return true;
}

/// `v * scale` at the fewest digits from "%g"'s six up that read back
/// as `v` — "%g" itself for every value it represents exactly.
std::string number_text(double v, double scale = 1.0) {
  char buf[40];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v * scale);
    if (std::strtod(buf, nullptr) / scale == v) break;
  }
  return buf;
}

/// The value spelling all of `text`.
template <class T>
std::optional<T> parse_all(std::string_view text) {
  T v{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return v;
}

/// The number spelling all of `text`, when it lies in [lo, hi].
std::optional<double> number(std::string_view text, double lo = 0.0,
                             double hi = kFinite) {
  const auto v = parse_all<double>(text);
  if (!v || !(*v >= lo && *v <= hi)) return std::nullopt;
  return v;
}

/// A positive duration with its unit, "50us", in seconds.
std::optional<double> micros(std::string_view text) {
  if (!text.ends_with("us")) return std::nullopt;
  text.remove_suffix(2);
  const auto v = number(text, kPositive);
  if (!v) return std::nullopt;
  return *v / kMicros;
}

/// Applies one `key=value` argument; false when the kind has no such
/// field or the value is malformed.
bool apply_key(MarkingRule& r, std::string_view key, std::string_view v) {
  const bool thresholds = r.kind == MarkingKind::kThreshold ||
                          r.kind == MarkingKind::kHysteresis;
  if (thresholds && key == "unit") return assign_name(r.unit, v, kUnits);
  if (r.kind == MarkingKind::kThreshold && key == "at") {
    return assign_name(r.mark_point, v, kMarkPoints);
  }
  if (r.kind == MarkingKind::kHysteresis && key == "variant") {
    return assign_name(r.variant, v, kVariants);
  }
  if (r.kind == MarkingKind::kRed) {
    const auto fraction = number(v, kPositive, 1.0);
    if (key == "max_p") return assign(r.red.max_p, fraction);
    if (key == "weight") return assign(r.red.weight, fraction);
    if (key == "gentle") return assign_name(r.red.gentle, v, kFlags);
    if (key == "ecn") return assign_name(r.red.ecn_mode, v, kFlags);
    if (key == "seed") return assign(r.red.seed, parse_all<Seed>(v));
  }
  if (r.kind == MarkingKind::kPie) {
    if (key == "update") return assign(r.pie.update_interval, micros(v));
    if (key == "alpha") return assign(r.pie.alpha, number(v));
    if (key == "beta") return assign(r.pie.beta, number(v));
    if (key == "seed") return assign(r.pie.seed, parse_all<Seed>(v));
  }
  if (r.kind == MarkingKind::kCodel && key == "interval") {
    return assign(r.codel.interval, micros(v));
  }
  return false;
}

}  // namespace

std::string MarkingRule::label() const {
  std::string s;
  const auto key = [&s](const char* name, const std::string& value) {
    s += std::string(",") + name + "=" + value;
  };
  switch (kind) {
    case MarkingKind::kDropTail:
      return "droptail";
    case MarkingKind::kThreshold:
      s = "dctcp:" + number_text(k_start);
      if (mark_point != MarkPoint::kArrival) {
        key("at", name_of(mark_point, kMarkPoints));
      }
      break;
    case MarkingKind::kHysteresis:
      s = "dt:" + number_text(k_start) + "," + number_text(k_stop);
      if (variant != HysteresisVariant::kTrendPeak) {
        key("variant", name_of(variant, kVariants));
      }
      break;
    case MarkingKind::kRed: {
      const RedConfig d;
      s = "red:" + number_text(red.min_th) + "," + number_text(red.max_th);
      if (red.max_p != d.max_p) key("max_p", number_text(red.max_p));
      if (red.weight != d.weight) key("weight", number_text(red.weight));
      if (!red.gentle) key("gentle", "0");
      if (!red.ecn_mode) key("ecn", "0");
      if (red.seed != d.seed) key("seed", std::to_string(red.seed));
      break;
    }
    case MarkingKind::kPie: {
      const PieConfig d;
      s = "pie:" + number_text(pie.target_delay, kMicros) + "us";
      if (pie.update_interval != d.update_interval) {
        key("update", number_text(pie.update_interval, kMicros) + "us");
      }
      if (pie.alpha != d.alpha) key("alpha", number_text(pie.alpha));
      if (pie.beta != d.beta) key("beta", number_text(pie.beta));
      if (pie.seed != d.seed) key("seed", std::to_string(pie.seed));
      break;
    }
    case MarkingKind::kCodel:
      s = "codel:" + number_text(codel.target, kMicros) + "us";
      if (codel.interval != CodelConfig{}.interval) {
        key("interval", number_text(codel.interval, kMicros) + "us");
      }
      break;
  }
  if (unit != ThresholdUnit::kPackets) key("unit", name_of(unit, kUnits));
  return s;
}

std::optional<MarkingRule> MarkingRule::parse(std::string_view label) {
  const auto colon = label.find(':');
  const std::string_view head = label.substr(0, colon);
  std::vector<std::string_view> args;
  if (colon != std::string_view::npos) {
    std::string_view rest = label.substr(colon + 1);
    for (auto comma = rest.find(','); comma != std::string_view::npos;
         comma = rest.find(',')) {
      args.push_back(rest.substr(0, comma));
      rest.remove_prefix(comma + 1);
    }
    args.push_back(rest);
  }
  // The leading arguments without '=' are positional.
  std::size_t n = 0;
  while (n < args.size() && args[n].find('=') == std::string_view::npos) ++n;

  MarkingRule r;
  bool ok = false;
  if (head == "droptail") {
    r = drop_tail();
    ok = n == 0;
  } else if (head == "dctcp") {
    ok = n == 1 && assign(r.k_start, number(args[0]));
    r.k_stop = r.k_start;
  } else if (head == "dt") {
    r = dt_dctcp(0.0, 0.0);
    ok = n == 2 && assign(r.k_start, number(args[0])) &&
         assign(r.k_stop, number(args[1])) && r.k_start <= r.k_stop;
  } else if (head == "red") {
    r = aqm(RedConfig{});
    ok = n == 2 && assign(r.red.min_th, number(args[0])) &&
         assign(r.red.max_th, number(args[1])) && r.red.min_th < r.red.max_th;
  } else if (head == "pie") {
    r = aqm(PieConfig{});
    ok = n == 0 || (n == 1 && assign(r.pie.target_delay, micros(args[0])));
  } else if (head == "codel") {
    r = aqm(CodelConfig{});
    ok = n == 0 || (n == 1 && assign(r.codel.target, micros(args[0])));
  }
  // Then key=value arguments, each key at most once.
  for (std::size_t i = n; ok && i < args.size(); ++i) {
    const auto eq = args[i].find('=');
    const std::string_view key = args[i].substr(0, eq);
    for (std::size_t j = n; j < i; ++j) {
      ok = ok && args[j].substr(0, args[j].find('=')) != key;
    }
    ok = ok && eq != std::string_view::npos &&
         apply_key(r, key, args[i].substr(eq + 1));
  }
  if (!ok) return std::nullopt;
  return r;
}

}  // namespace dtdctcp::queue
