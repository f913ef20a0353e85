#include "workload/churn.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graphdb/label_index.h"
#include "graphdb/serialization.h"
#include "lang/language.h"
#include "resilience/resilience.h"
#include "util/rng.h"

namespace rpqres {
namespace workload {
namespace {

/// True when an answer-side status means "no refutable answer".
bool IsInconclusive(StatusCode code) {
  return code == StatusCode::kOutOfRange ||
         code == StatusCode::kDeadlineExceeded;
}

std::string SpanToString(std::span<const FactId> facts) {
  std::string out = "[";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(facts[i]);
  }
  return out + "]";
}

/// Compares the versioned snapshot's index against a reference index,
/// translating versioned fact ids through `old_to_ref` (identity when
/// null). Returns a divergence line or empty.
std::string CompareIndexes(const GraphDb& versioned_db,
                           const LabelIndex& versioned,
                           const GraphDb& ref_db, const LabelIndex& reference,
                           const std::vector<FactId>* old_to_ref) {
  if (versioned.labels() != reference.labels()) {
    return "label set divergence";
  }
  auto translate = [&](std::span<const FactId> facts) {
    std::vector<FactId> out(facts.begin(), facts.end());
    if (old_to_ref != nullptr) {
      for (FactId& f : out) f = (*old_to_ref)[f];
    }
    return out;
  };
  for (char label : versioned.labels()) {
    for (NodeId v = 0; v < versioned_db.num_nodes(); ++v) {
      std::vector<FactId> from = translate(versioned.FactsFrom(label, v));
      std::span<const FactId> ref_from = reference.FactsFrom(label, v);
      if (!std::equal(from.begin(), from.end(), ref_from.begin(),
                      ref_from.end())) {
        return std::string("FactsFrom('") + label + "', " +
               std::to_string(v) + ") divergence: " + SpanToString(from) +
               " vs " + SpanToString(ref_from);
      }
      std::vector<FactId> into = translate(versioned.FactsInto(label, v));
      std::span<const FactId> ref_into = reference.FactsInto(label, v);
      if (!std::equal(into.begin(), into.end(), ref_into.begin(),
                      ref_into.end())) {
        return std::string("FactsInto('") + label + "', " +
               std::to_string(v) + ") divergence";
      }
    }
  }
  (void)ref_db;
  return "";
}

}  // namespace

ChurnHarness::ChurnHarness(ChurnOptions options)
    : options_([&options] {
        options.engine.max_exact_search_nodes = options.max_exact_search_nodes;
        return std::move(options);
      }()),
      engine_(options_.engine) {}

ChurnReport ChurnHarness::Run(uint64_t seed) {
  ChurnReport report;
  report.seed = seed;
  auto fail = [&](int commit, const std::string& what) {
    report.mismatches.push_back("seed " + std::to_string(seed) + " commit " +
                                std::to_string(commit) + ": " + what);
  };

  Result<WorkloadInstance> instance =
      MakeWorkloadInstance(seed, options_.workload);
  if (!instance.ok()) {
    report.generation_failed = true;
    return report;
  }
  report.regex = instance->query.regex;
  report.semantics = instance->semantics;
  Language lang = Language::MustFromRegexString(instance->query.regex);

  // The delta-built lineage and its independently maintained flat twin.
  DbRegistry::Options registry_options = options_.registry;
  std::string storage_dir;
  if (options_.persist) {
    const std::filesystem::path root =
        options_.storage_root.empty()
            ? std::filesystem::temp_directory_path()
            : std::filesystem::path(options_.storage_root);
    storage_dir = (root / ("rpqres_churn_" + std::to_string(seed) + "_" +
                           std::to_string(::getpid())))
                      .string();
    std::error_code ec;
    std::filesystem::remove_all(storage_dir, ec);
    registry_options.storage_dir = storage_dir;
  }
  auto registry = std::make_unique<DbRegistry>(registry_options);
  GraphDb reference = instance->db;
  DbHandle latest = registry->Register(instance->db, "churn");
  // Persist mode keeps every version's handle so the reopened registry
  // can be compared snapshot-by-snapshot; the durable window starts at
  // the version of the most recently written segment.
  std::vector<DbHandle> history;
  uint32_t last_segment_version = 1;
  if (options_.persist) history.push_back(latest);
  // Scratch registry for the per-commit from-scratch rebuilds.
  DbRegistry rebuilt_registry;

  // Label pool: the instance's labels plus the query's letters, so churn
  // both perturbs existing matches and creates fresh ones.
  std::vector<char> labels = reference.Labels();
  for (char c : lang.used_letters()) labels.push_back(c);
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  if (labels.empty()) labels.push_back('a');  // degenerate ε-only queries

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  int node_seq = 0;

  for (int commit = 1; commit <= options_.num_commits; ++commit) {
    DeltaBatch batch = registry->BeginDelta(latest);
    const int ops = 1 + static_cast<int>(rng.NextBelow(
                            static_cast<uint64_t>(options_.max_ops_per_commit)));
    for (int op = 0; op < ops; ++op) {
      ++report.ops;
      const int roll = static_cast<int>(rng.NextBelow(100));
      if (roll < options_.remove_percent && reference.num_facts() > 0) {
        FactId victim = static_cast<FactId>(
            rng.NextBelow(static_cast<uint64_t>(reference.num_facts())));
        const Fact fact = reference.fact(victim);
        Status removed =
            batch.RemoveFact(fact.source, fact.label, fact.target);
        if (!removed.ok()) {
          fail(commit, "RemoveFact refused: " + removed.ToString());
          return report;
        }
        reference = reference.RemoveFacts({victim});
      } else if (roll < options_.remove_percent + options_.add_node_percent) {
        std::string name = "churn" + std::to_string(node_seq++);
        NodeId batch_node = batch.AddNode(name);
        NodeId ref_node = reference.AddNode(name);
        if (batch_node != ref_node) {
          fail(commit, "AddNode id divergence");
          return report;
        }
      } else if (reference.num_nodes() > 0) {
        NodeId source = static_cast<NodeId>(
            rng.NextBelow(static_cast<uint64_t>(reference.num_nodes())));
        NodeId target = static_cast<NodeId>(
            rng.NextBelow(static_cast<uint64_t>(reference.num_nodes())));
        char label = labels[rng.NextBelow(labels.size())];
        Capacity multiplicity = 1 + static_cast<Capacity>(rng.NextBelow(3));
        Result<FactId> added =
            batch.AddFact(source, label, target, multiplicity);
        if (!added.ok()) {
          fail(commit, "AddFact refused: " + added.status().ToString());
          return report;
        }
        reference.AddFact(source, label, target, multiplicity);
      }
    }

    Result<DbHandle> committed = batch.Commit();
    if (!committed.ok()) {
      fail(commit, "Commit failed: " + committed.status().ToString());
      return report;
    }
    latest = *std::move(committed);
    ++report.commits;
    const GraphDb& versioned = latest.db();
    if (versioned.is_versioned() == false && latest.version() > 1) {
      ++report.compactions;
      // A compacting commit wrote a fresh base segment and reset the
      // journal: versions below this one are no longer durable.
      last_segment_version = latest.version();
    }
    if (options_.persist) history.push_back(latest);

    // 1. Serialization byte-equality with the flat twin.
    std::string versioned_text = SerializeGraphDb(versioned);
    std::string reference_text = SerializeGraphDb(reference);
    if (versioned_text != reference_text) {
      fail(commit, "serialization divergence:\n--- delta-built ---\n" +
                       versioned_text + "--- from scratch ---\n" +
                       reference_text);
      return report;
    }

    // 2a. Incremental index == full rebuild over the same overlay
    //     (identical id space: exact span equality).
    LabelIndex full_rebuild(versioned);
    std::string index_diff = CompareIndexes(
        versioned, *latest.label_index(), versioned, full_rebuild,
        /*old_to_ref=*/nullptr);
    if (!index_diff.empty()) {
      fail(commit, "incremental vs full index: " + index_diff);
      return report;
    }
    // 2b. ... and == the from-scratch index, through the live renumbering.
    std::vector<FactId> old_to_ref(versioned.num_facts(), -1);
    FactId rank = 0;
    for (FactId f = 0; f < versioned.num_facts(); ++f) {
      if (versioned.IsLive(f)) old_to_ref[f] = rank++;
    }
    LabelIndex reference_index(reference);
    index_diff = CompareIndexes(versioned, *latest.label_index(), reference,
                                reference_index, &old_to_ref);
    if (!index_diff.empty()) {
      fail(commit, "incremental vs from-scratch index: " + index_diff);
      return report;
    }

    // 3. Resilience answers: delta-built snapshot vs a from-scratch
    //    registration of the flat twin.
    ResilienceRequest versioned_request;
    versioned_request.regex = instance->query.regex;
    versioned_request.db = latest;
    versioned_request.semantics = instance->semantics;
    ResilienceRequest rebuilt_request = versioned_request;
    rebuilt_request.db = rebuilt_registry.Register(reference);
    ResilienceResponse versioned_response = engine_.Evaluate(versioned_request);
    ResilienceResponse rebuilt_response = engine_.Evaluate(rebuilt_request);
    rebuilt_registry.Unregister(rebuilt_request.db.id());
    if (IsInconclusive(versioned_response.status.code()) ||
        IsInconclusive(rebuilt_response.status.code())) {
      ++report.inconclusive;
      continue;
    }
    if (versioned_response.status.code() != rebuilt_response.status.code()) {
      fail(commit, "status divergence: versioned " +
                       versioned_response.status.ToString() + " vs rebuilt " +
                       rebuilt_response.status.ToString());
      return report;
    }
    if (!versioned_response.status.ok()) continue;
    const ResilienceResult& versioned_result = versioned_response.result;
    const ResilienceResult& rebuilt_result = rebuilt_response.result;
    if (versioned_result.infinite != rebuilt_result.infinite ||
        (!versioned_result.infinite &&
         versioned_result.value != rebuilt_result.value)) {
      fail(commit,
           "value divergence: versioned=" +
               (versioned_result.infinite
                    ? std::string("inf")
                    : std::to_string(versioned_result.value)) +
               " (" + versioned_result.algorithm + ") vs rebuilt=" +
               (rebuilt_result.infinite
                    ? std::string("inf")
                    : std::to_string(rebuilt_result.value)) +
               " (" + rebuilt_result.algorithm + ")");
      return report;
    }
    Status witness = VerifyResilienceResult(lang, versioned,
                                            instance->semantics,
                                            versioned_result);
    if (!witness.ok()) {
      fail(commit, "versioned witness invalid: " + witness.message());
      return report;
    }
  }

  // Persistence round trip: close the registry, reopen from disk, and
  // require every durable version back bit for bit.
  if (options_.persist) {
    auto persist_fail = [&](const std::string& what) {
      report.mismatches.push_back("seed " + std::to_string(seed) +
                                  " persistence: " + what);
    };
    Status storage = registry->storage_status();
    if (!storage.ok()) {
      persist_fail("storage_status: " + storage.ToString());
    } else {
      registry.reset();  // closes journal writers; handles stay alive
      Result<std::unique_ptr<DbRegistry>> reopened =
          DbRegistry::OpenStorage(storage_dir);
      if (!reopened.ok()) {
        persist_fail("OpenStorage: " + reopened.status().ToString());
      } else {
        DbRegistry& restored_registry = **reopened;
        for (const DbHandle& expected : history) {
          // Versions below the last written segment were folded away by
          // a compaction; only the durable window must come back.
          if (expected.version() < last_segment_version) continue;
          Result<DbHandle> restored = restored_registry.Resolve(
              "churn@" + std::to_string(expected.version()));
          const std::string at =
              " at version " + std::to_string(expected.version());
          if (!restored.ok()) {
            persist_fail("Resolve" + at + ": " +
                         restored.status().ToString());
            break;
          }
          if (restored->id() != expected.id() ||
              restored->lineage() != expected.lineage()) {
            persist_fail("snapshot identity divergence" + at);
            break;
          }
          if (SerializeGraphDb(restored->db()) !=
              SerializeGraphDb(expected.db())) {
            persist_fail("serialization divergence" + at);
            break;
          }
          std::string index_diff = CompareIndexes(
              restored->db(), *restored->label_index(), expected.db(),
              *expected.label_index(), /*old_to_ref=*/nullptr);
          if (!index_diff.empty()) {
            persist_fail("index divergence" + at + ": " + index_diff);
            break;
          }
          ++report.persisted_versions;
        }
        Result<DbHandle> restored_latest = restored_registry.Resolve("churn");
        if (!restored_latest.ok() ||
            restored_latest->version() != latest.version()) {
          persist_fail("latest is version " +
                       (restored_latest.ok()
                            ? std::to_string(restored_latest->version())
                            : restored_latest.status().ToString()) +
                       ", want " + std::to_string(latest.version()));
        } else if (report.ok()) {
          // Engine answer on the restored data. Registering a copy under
          // a scratch lineage forces a fresh solve (new ResultCache key)
          // over the mmap-backed facts instead of a cache hit on the
          // original (lineage, version).
          DbRegistry scratch;
          ResilienceRequest request;
          request.regex = instance->query.regex;
          request.semantics = instance->semantics;
          request.db = scratch.Register(restored_latest->db());
          ResilienceResponse restored_response = engine_.Evaluate(request);
          request.db = latest;
          ResilienceResponse memory_response = engine_.Evaluate(request);
          if (IsInconclusive(restored_response.status.code()) ||
              IsInconclusive(memory_response.status.code())) {
            ++report.inconclusive;
          } else if (restored_response.status.code() !=
                     memory_response.status.code()) {
            persist_fail("answer status divergence: restored " +
                         restored_response.status.ToString() +
                         " vs in-memory " +
                         memory_response.status.ToString());
          } else if (memory_response.status.ok() &&
                     (restored_response.result.infinite !=
                          memory_response.result.infinite ||
                      (!memory_response.result.infinite &&
                       restored_response.result.value !=
                           memory_response.result.value))) {
            persist_fail("answer value divergence on restored latest");
          }
        }
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(storage_dir, ec);
  }
  return report;
}

}  // namespace workload
}  // namespace rpqres
