#include "core/error.hpp"

#include <new>

#include "sim/simulator.hpp"

namespace cgs::core {

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

ErrorClass classify(const std::exception& e) {
  if (dynamic_cast<const InvariantViolation*>(&e) != nullptr) {
    return ErrorClass::kInvariant;
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
