// Degraded-mode serving: a shard whose storage faulted keeps answering
// reads with full parity while the router sheds its commits with
// kUnavailable; a failed (corrupt) shard sheds reads too. Health and
// fault visibility ride the merged metrics snapshot: per-shard
// rpqres_shard_health gauges and the rpqres_storage_faults_total family.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/db_registry.h"
#include "engine/engine.h"
#include "fault/failpoints.h"
#include "serve/router.h"
#include "serve/sharded_registry.h"
#include "util/status.h"

namespace rpqres {
namespace {

namespace fs = std::filesystem;

using serve::Router;
using serve::ServeRequest;
using serve::ShardedRegistry;

class ServeDegradedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FailpointRegistry::Instance().ResetAll();
    dir_ = (fs::temp_directory_path() /
            ("rpqres_degraded_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    fault::FailpointRegistry::Instance().ResetAll();
    fs::remove_all(dir_);
  }

  static EngineOptions TestEngineOptions() {
    EngineOptions options;
    options.num_threads = 2;
    return options;
  }

  static DbRegistry::Options PersistentOptions(const std::string& dir) {
    DbRegistry::Options options;
    options.storage_dir = dir;
    options.storage_retry_attempts = 1;
    options.storage_retry_backoff_micros = 0;
    return options;
  }

  static GraphDb TinyDb() {
    GraphDb db;
    NodeId u = db.AddNode("u");
    NodeId v = db.AddNode("v");
    db.AddFact(u, 'a', v);
    return db;
  }

  /// Two lineage names guaranteed to live on different shards of a
  /// 2-shard fleet, so one shard can fail while the other stays clean.
  static std::pair<std::string, std::string> SplitNames(
      const ShardedRegistry& shards) {
    std::string on_zero, on_one;
    for (int i = 0; on_zero.empty() || on_one.empty(); ++i) {
      const std::string name = "tenantdb" + std::to_string(i);
      (shards.ShardForName(name) == 0 ? on_zero : on_one) = name;
    }
    return {on_zero, on_one};
  }

  static ResilienceResponse Read(Router& router, const std::string& ref) {
    ServeRequest request;
    request.tenant = "acme";
    request.request.regex = "a";
    request.request.db_ref = ref;
    return router.Evaluate(std::move(request));
  }

  std::string dir_;
};

TEST_F(ServeDegradedTest, DegradedShardServesReadsAndShedsCommits) {
  ShardedRegistry shards(2, TestEngineOptions(), PersistentOptions(dir_));
  Router router(&shards);
  auto [name, other_name] = SplitNames(shards);
  shards.Register(TinyDb(), name);
  shards.Register(TinyDb(), other_name);
  const int shard = shards.ShardForName(name);

  // Healthy baseline: one read answer, one applied commit.
  ResilienceResponse baseline = Read(router, name);
  ASSERT_TRUE(baseline.status.ok()) << baseline.status.ToString();
  Result<DbHandle> applied =
      router.Commit("acme", name, [](DeltaBatch* batch) {
        NodeId n = batch->AddNode();
        return batch->AddFact(0, 'a', n).status();
      });
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(router.stats().commits_applied, 1);

  // Every journal write fails: the next commit reaches the registry,
  // rolls back, and the shard degrades to read-only.
  fault::FailpointRegistry::Instance().Arm(
      fault::sites::kJournalWrite,
      fault::FaultSpec::Always(fault::FaultKind::kEIO));
  Result<DbHandle> faulted =
      router.Commit("acme", name, [](DeltaBatch* batch) {
        NodeId n = batch->AddNode();
        return batch->AddFact(0, 'a', n).status();
      });
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.stats().commits_unavailable, 1);
  EXPECT_EQ(shards.registry(shard).health(), HealthState::kDegraded);
  fault::FailpointRegistry::Instance().ResetAll();

  // Later commits shed at the router — no batch is even built.
  Result<DbHandle> shed = router.Commit("acme", name, [](DeltaBatch* batch) {
    ADD_FAILURE() << "mutate ran on a degraded shard";
    (void)batch;
    return Status::OK();
  });
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.stats().commits_shed, 1);
  EXPECT_EQ(router.stats().sheds(), 0);  // read sheds only

  // Reads still flow to the degraded shard, with unchanged answers.
  ResilienceResponse after = Read(router, name);
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.result.infinite, baseline.result.infinite);
  // The applied commit added a parallel 'a' edge; the answer at @1 must
  // equal the baseline exactly.
  ServeRequest at_v1;
  at_v1.tenant = "acme";
  at_v1.request.regex = "a";
  at_v1.request.db_ref = name + "@1";
  ResilienceResponse parity = router.Evaluate(std::move(at_v1));
  ASSERT_TRUE(parity.status.ok());
  EXPECT_EQ(parity.result.infinite, baseline.result.infinite);
  EXPECT_EQ(parity.result.value, baseline.result.value);

  // The healthy shard is untouched: reads and commits both flow.
  ASSERT_TRUE(Read(router, other_name).status.ok());
  Result<DbHandle> other_commit =
      router.Commit("acme", other_name, [](DeltaBatch* batch) {
        NodeId n = batch->AddNode();
        return batch->AddFact(0, 'a', n).status();
      });
  EXPECT_TRUE(other_commit.ok()) << other_commit.status().ToString();

  // Health and fault visibility in the merged snapshot.
  obs::MetricsSnapshot snapshot = router.TakeMetricsSnapshot();
  bool saw_degraded = false, saw_healthy = false;
  for (const obs::GaugeSample& gauge : snapshot.gauges) {
    if (gauge.name != "rpqres_shard_health") continue;
    if (gauge.shard == std::to_string(shard)) {
      EXPECT_EQ(gauge.value, 1.0);
      saw_degraded = true;
    } else {
      EXPECT_EQ(gauge.value, 0.0);
      saw_healthy = true;
    }
  }
  EXPECT_TRUE(saw_degraded);
  EXPECT_TRUE(saw_healthy);
  bool saw_fault_counter = false;
  for (const auto& family : snapshot.counters) {
    if (family.name != "rpqres_storage_faults_total") continue;
    for (const auto& sample : family.samples) {
      if (sample.label == "journal_append" && sample.value >= 1) {
        saw_fault_counter = true;
      }
    }
  }
  EXPECT_TRUE(saw_fault_counter);
  bool saw_shed_outcome = false;
  for (const auto& family : snapshot.counters) {
    if (family.name != "rpqres_router_commits_total") continue;
    for (const auto& sample : family.samples) {
      if (sample.label == "shed" && sample.value >= 1) {
        saw_shed_outcome = true;
      }
    }
  }
  EXPECT_TRUE(saw_shed_outcome);
}

TEST_F(ServeDegradedTest, CommitShedKeepsTheReadBalance) {
  ShardedRegistry shards(2, TestEngineOptions(), PersistentOptions(dir_));
  Router router(&shards);
  auto [name, other_name] = SplitNames(shards);
  shards.Register(TinyDb(), name);
  const int shard = shards.ShardForName(name);
  shards.registry(shard).DegradeStorageForTesting(
      Status::Unavailable("journal device gone (drill)"));
  ASSERT_EQ(shards.registry(shard).health(), HealthState::kDegraded);

  ASSERT_TRUE(Read(router, name).status.ok());
  Result<DbHandle> shed = router.Commit("acme", name, [](DeltaBatch* batch) {
    (void)batch;
    return Status::OK();
  });
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  // A commit shed is a commit outcome, not a read decision: the read
  // balance still holds.
  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.commits_shed, 1);
  EXPECT_EQ(stats.commits_submitted, 1);
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.sheds());
}

/// One sample of the router's own (unsharded) counter families, or -1
/// when absent; an empty label sums the family.
int64_t RouterSample(const obs::MetricsSnapshot& snapshot,
                     std::string_view family, std::string_view label) {
  int64_t value = -1;
  for (const obs::CounterFamily::Snapshot& f : snapshot.counters) {
    if (f.name != family) continue;
    for (const obs::CounterFamily::Sample& sample : f.samples) {
      if (sample.shard.empty() && (label.empty() || sample.label == label)) {
        value = std::max<int64_t>(value, 0) + sample.value;
      }
    }
  }
  return value;
}

TEST_F(ServeDegradedTest, RouterStatsViewEqualsExport) {
  ShardedRegistry shards(2, TestEngineOptions(), PersistentOptions(dir_));
  serve::RouterOptions options;
  options.admission.max_inflight_per_shard = 2;
  options.admission.max_inflight_per_tenant = 1;
  options.admission.min_predict_samples = 1;
  Router router(&shards, options);
  auto [name, other_name] = SplitNames(shards);
  shards.Register(TinyDb(), name);
  shards.Register(TinyDb(), other_name);
  const int shard = shards.ShardForName(name);
  const int other = shards.ShardForName(other_name);
  auto read = [&](const std::string& tenant, const std::string& ref,
                  std::optional<std::chrono::steady_clock::time_point>
                      deadline) {
    ServeRequest request;
    request.tenant = tenant;
    request.request.regex = "a";
    request.request.db_ref = ref;
    request.request.options.deadline = deadline;
    return router.Evaluate(std::move(request)).status.code();
  };
  const auto now = std::chrono::steady_clock::now();

  // Two admitted reads, and a deadline that has already passed.
  EXPECT_EQ(read("acme", name, std::nullopt), StatusCode::kOk);
  EXPECT_EQ(read("acme", other_name, std::nullopt), StatusCode::kOk);
  EXPECT_EQ(read("acme", other_name, now - std::chrono::milliseconds(1)),
            StatusCode::kDeadlineExceeded);
  // Two held slots saturate the other shard; tenant "x" holds one of them,
  // its cap.
  serve::AdmissionController::Ticket held[2];
  ASSERT_EQ(router.admission().TryAdmit(other, "x", std::nullopt, &held[0]),
            serve::AdmissionDecision::kAdmitted);
  ASSERT_EQ(router.admission().TryAdmit(other, "y", std::nullopt, &held[1]),
            serve::AdmissionDecision::kAdmitted);
  EXPECT_EQ(read("acme", other_name, std::nullopt),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(read("x", name, std::nullopt), StatusCode::kResourceExhausted);
  // Releasing them as 1000 s requests makes a 1 s deadline unmeetable.
  router.admission().Complete(held[0], 1e9);
  router.admission().Complete(held[1], 1e9);
  EXPECT_EQ(read("acme", other_name,
                 std::chrono::steady_clock::now() + std::chrono::seconds(1)),
            StatusCode::kDeadlineExceeded);

  // Commits: applied, two errors, rolled back, then shed.
  auto add_fact = [](DeltaBatch* batch) {
    NodeId n = batch->AddNode();
    return batch->AddFact(0, 'a', n).status();
  };
  EXPECT_TRUE(router.Commit("acme", name, add_fact).ok());
  EXPECT_EQ(router.Commit("acme", name + "@99", add_fact).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(router
                .Commit("acme", name,
                        [](DeltaBatch*) {
                          return Status::InvalidArgument("refused");
                        })
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  fault::FailpointRegistry::Instance().Arm(
      fault::sites::kJournalWrite,
      fault::FaultSpec::Always(fault::FaultKind::kEIO));
  EXPECT_EQ(router.Commit("acme", name, add_fact).status().code(),
            StatusCode::kUnavailable);
  fault::FailpointRegistry::Instance().ResetAll();
  EXPECT_EQ(router.Commit("acme", name, add_fact).status().code(),
            StatusCode::kUnavailable);

  // A failed shard sheds reads.
  shards.registry(shard).DegradeStorageForTesting(
      Status::DataLoss("segment checksum mismatch (drill)"));
  EXPECT_EQ(read("acme", name, std::nullopt), StatusCode::kUnavailable);
  router.Drain();

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.submitted, 7);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.shed_deadline_expired, 1);
  EXPECT_EQ(stats.shed_deadline_unmeetable, 1);
  EXPECT_EQ(stats.shed_shard_saturated, 1);
  EXPECT_EQ(stats.shed_tenant_cap, 1);
  EXPECT_EQ(stats.shed_shard_unavailable, 1);
  EXPECT_EQ(stats.commits_submitted, 5);
  EXPECT_EQ(stats.commits_applied, 1);
  EXPECT_EQ(stats.commits_error, 2);
  EXPECT_EQ(stats.commits_unavailable, 1);
  EXPECT_EQ(stats.commits_shed, 1);

  // Field by field, against the exported samples themselves.
  const obs::MetricsSnapshot snapshot = router.TakeMetricsSnapshot();
  auto decision = [&](std::string_view label) {
    return RouterSample(snapshot, "rpqres_router_admission_total", label);
  };
  auto outcome = [&](std::string_view label) {
    return RouterSample(snapshot, "rpqres_router_commits_total", label);
  };
  EXPECT_EQ(stats.submitted, decision(""));
  EXPECT_EQ(stats.admitted, decision("admitted"));
  EXPECT_EQ(stats.shed_deadline_expired, decision("shed_deadline_expired"));
  EXPECT_EQ(stats.shed_deadline_unmeetable,
            decision("shed_deadline_unmeetable"));
  EXPECT_EQ(stats.shed_shard_saturated, decision("shed_shard_saturated"));
  EXPECT_EQ(stats.shed_tenant_cap, decision("shed_tenant_cap"));
  EXPECT_EQ(stats.shed_shard_unavailable, decision("shed_shard_unavailable"));
  EXPECT_EQ(stats.completed,
            RouterSample(snapshot, "rpqres_router_completions_total", ""));
  EXPECT_EQ(stats.commits_submitted, outcome(""));
  EXPECT_EQ(stats.commits_applied, outcome("applied"));
  EXPECT_EQ(stats.commits_error, outcome("error"));
  EXPECT_EQ(stats.commits_unavailable, outcome("unavailable"));
  EXPECT_EQ(stats.commits_shed, outcome("shed"));
  EXPECT_EQ(stats.submitted, stats.admitted + stats.sheds());
}

TEST_F(ServeDegradedTest, FailedShardShedsReadsToo) {
  ShardedRegistry shards(2, TestEngineOptions(), PersistentOptions(dir_));
  Router router(&shards);
  auto [name, other_name] = SplitNames(shards);
  shards.Register(TinyDb(), name);
  shards.Register(TinyDb(), other_name);
  const int shard = shards.ShardForName(name);

  const EngineStats before = router.engine_stats();
  shards.registry(shard).DegradeStorageForTesting(
      Status::DataLoss("segment checksum mismatch (drill)"));
  ASSERT_EQ(shards.registry(shard).health(), HealthState::kFailed);

  ResilienceResponse response = Read(router, name);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.stats().shed_shard_unavailable, 1);
  // The shed never reached an engine.
  EXPECT_EQ(router.engine_stats().instances_run, before.instances_run);
  // And it landed in the shed log under its decision name.
  bool logged = false;
  for (const obs::SlowQueryRecord& record : router.shed_queries()) {
    if (record.algorithm == "shed_shard_unavailable" &&
        record.status == "unavailable") {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);

  // The sibling shard still answers.
  EXPECT_TRUE(Read(router, other_name).status.ok());
  // Gauge reports the terminal state.
  for (const obs::GaugeSample& gauge : router.TakeMetricsSnapshot().gauges) {
    if (gauge.name == "rpqres_shard_health" &&
        gauge.shard == std::to_string(shard)) {
      EXPECT_EQ(gauge.value, 2.0);
    }
  }
}

}  // namespace
}  // namespace rpqres
