// Error taxonomy: classification drives mechanical decisions (replay's
// sandbox, triage grouping, journal bytes), so the mapping is pinned.
#include "core/error.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulator.hpp"

namespace cgs::core {
namespace {

TEST(ErrorTaxonomy, ClassifyMapsExceptionTypes) {
  EXPECT_EQ(classify(InvariantViolation("x")), ErrorClass::kInvariant);
  EXPECT_EQ(classify(sim::WatchdogError("budget")), ErrorClass::kWatchdog);
  EXPECT_EQ(classify(std::invalid_argument("bad field")),
            ErrorClass::kScenario);
  EXPECT_EQ(classify(std::logic_error("oops")), ErrorClass::kScenario);
  EXPECT_EQ(classify(std::runtime_error("env?")), ErrorClass::kUnclassified);
  // A failed allocation is a resource failure whether it happens in-process
  // or under a forked child's RLIMIT_AS cap.
  EXPECT_EQ(classify(std::bad_alloc()), ErrorClass::kResource);
}

TEST(ErrorTaxonomy, ProcessFailuresAreTheSupervisorClasses) {
  EXPECT_TRUE(is_process_failure(ErrorClass::kCrash));
  EXPECT_TRUE(is_process_failure(ErrorClass::kTimeout));
  EXPECT_TRUE(is_process_failure(ErrorClass::kResource));
  EXPECT_FALSE(is_process_failure(ErrorClass::kWatchdog));
  EXPECT_FALSE(is_process_failure(ErrorClass::kInvariant));
  EXPECT_FALSE(is_process_failure(ErrorClass::kScenario));
  EXPECT_FALSE(is_process_failure(ErrorClass::kUnclassified));
}

TEST(ErrorTaxonomy, ClassBytesRoundTripAndRejectGarbage) {
  for (const ErrorClass c :
       {ErrorClass::kWatchdog, ErrorClass::kInvariant, ErrorClass::kScenario,
        ErrorClass::kUnclassified, ErrorClass::kCrash, ErrorClass::kTimeout,
        ErrorClass::kResource}) {
    EXPECT_EQ(error_class_from_byte(std::uint8_t(c)), c);
  }
  // On-disk bytes are untrusted: unknown values degrade, never UB.
  EXPECT_EQ(error_class_from_byte(200), ErrorClass::kUnclassified);
  EXPECT_EQ(to_string(ErrorClass::kWatchdog), "watchdog");
  EXPECT_EQ(to_string(ErrorClass::kUnclassified), "unclassified");
  EXPECT_EQ(to_string(ErrorClass::kCrash), "crash");
  EXPECT_EQ(to_string(ErrorClass::kTimeout), "timeout");
  EXPECT_EQ(to_string(ErrorClass::kResource), "resource");
}

}  // namespace
}  // namespace cgs::core
