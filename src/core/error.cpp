#include "core/error.hpp"

#include <new>
#include <sstream>

#include "sim/simulator.hpp"

namespace cgs::core {

namespace {

std::string format_what(ErrorClass cls, const std::string& msg,
                        const ErrorContext& ctx) {
  std::ostringstream os;
  os << "[" << to_string(cls) << "]";
  if (!ctx.cell_label.empty()) os << " cell '" << ctx.cell_label << "'";
  if (ctx.seed != 0) os << " seed " << ctx.seed;
  if (ctx.sim_time != kTimeInfinite) {
    os << " t=" << to_seconds(ctx.sim_time) << "s";
  }
  if (ctx.flow != 0) os << " flow " << ctx.flow;
  os << ": " << msg;
  return os.str();
}

}  // namespace

std::string_view to_string(ErrorClass c) {
  switch (c) {
    case ErrorClass::kWatchdog: return "watchdog";
    case ErrorClass::kInvariant: return "invariant";
    case ErrorClass::kScenario: return "scenario";
    case ErrorClass::kUnclassified: return "unclassified";
    case ErrorClass::kCrash: return "crash";
    case ErrorClass::kTimeout: return "timeout";
    case ErrorClass::kResource: return "resource";
  }
  return "?";
}

SimError::SimError(ErrorClass cls, const std::string& msg, ErrorContext ctx)
    : std::runtime_error(format_what(cls, msg, ctx)),
      cls_(cls),
      ctx_(std::move(ctx)) {}

ErrorClass classify(const std::exception& e) {
  if (const auto* s = dynamic_cast<const SimError*>(&e)) {
    return s->error_class();
  }
  if (dynamic_cast<const sim::WatchdogError*>(&e) != nullptr) {
    return ErrorClass::kWatchdog;
  }
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    return ErrorClass::kResource;
  }
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr ||
      dynamic_cast<const std::logic_error*>(&e) != nullptr) {
    return ErrorClass::kScenario;
  }
  return ErrorClass::kUnclassified;
}

ErrorContext context_of(const std::exception& e) {
  if (const auto* s = dynamic_cast<const SimError*>(&e)) {
    return s->context();
  }
  if (const auto* w = dynamic_cast<const sim::WatchdogError*>(&e)) {
    ErrorContext ctx;
    ctx.sim_time = w->sim_time();
    return ctx;
  }
  return {};
}

ErrorClass error_class_from_byte(std::uint8_t b) {
  switch (b) {
    case std::uint8_t(ErrorClass::kWatchdog): return ErrorClass::kWatchdog;
    case std::uint8_t(ErrorClass::kInvariant): return ErrorClass::kInvariant;
    case std::uint8_t(ErrorClass::kScenario): return ErrorClass::kScenario;
    case std::uint8_t(ErrorClass::kCrash): return ErrorClass::kCrash;
    case std::uint8_t(ErrorClass::kTimeout): return ErrorClass::kTimeout;
    case std::uint8_t(ErrorClass::kResource): return ErrorClass::kResource;
    default: return ErrorClass::kUnclassified;
  }
}

}  // namespace cgs::core
