// Error taxonomy: classification drives mechanical decisions (forked
// strikes, triage grouping, journal bytes), so the mapping is pinned.
#include "core/error.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/simulator.hpp"

namespace cgs::core {
namespace {

using namespace std::chrono;

TEST(ErrorTaxonomy, ClassifyMapsExceptionTypes) {
  EXPECT_EQ(classify(SimError(ErrorClass::kInvariant, "x")),
            ErrorClass::kInvariant);
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

TEST(ErrorTaxonomy, SimErrorCarriesStructuredContext) {
  ErrorContext ctx;
  ctx.cell_label = "Stadia 25Mb/s";
  ctx.seed = 44;
  ctx.sim_time = seconds(7);
  ctx.flow = 2;
  const InvariantViolation e("bytes leaked", ctx);
  EXPECT_EQ(e.error_class(), ErrorClass::kInvariant);
  EXPECT_EQ(e.context().seed, 44u);
  EXPECT_EQ(e.context().flow, 2u);
  // what() embeds every known context field, human-readable.
  const std::string what = e.what();
  EXPECT_NE(what.find("[invariant]"), std::string::npos) << what;
  EXPECT_NE(what.find("cell 'Stadia 25Mb/s'"), std::string::npos) << what;
  EXPECT_NE(what.find("seed 44"), std::string::npos) << what;
  EXPECT_NE(what.find("flow 2"), std::string::npos) << what;
  EXPECT_NE(what.find("bytes leaked"), std::string::npos) << what;
}

TEST(ErrorTaxonomy, ContextOfExtractsWhatTheExceptionKnows) {
  ErrorContext ctx;
  ctx.seed = 9;
  const SimError s(ErrorClass::kScenario, "m", ctx);
  EXPECT_EQ(context_of(s).seed, 9u);

  const sim::WatchdogError w("budget", seconds(12), 1'000'000);
  const ErrorContext wc = context_of(w);
  EXPECT_EQ(wc.sim_time, Time(seconds(12)));
  EXPECT_TRUE(wc.cell_label.empty());  // the sweep engine fills these in

  EXPECT_EQ(context_of(std::runtime_error("x")).sim_time, kTimeInfinite);
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
