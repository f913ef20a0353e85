#!/usr/bin/env python3
"""Project-invariant lints for rpqres (PR-10).

Mechanical contracts that neither the compiler nor clang-tidy knows
about, enforced over the source tree:

  storage-raw-syscall
      In src/storage/, the syscalls that the failpoint layer wraps
      (open/write/fsync/rename/ftruncate/close/mmap) must be called
      through their fault:: wrappers so every durability-relevant I/O
      is crash-testable. Raw `::open(` etc. is a violation. The fault
      layer itself (src/fault/) is the one place raw syscalls belong.

  workload-nondeterminism
      src/workload/ is the deterministic replay layer: every draw comes
      from a seeded SplitMix64 stream. `rand(`/`srand(`,
      `std::random_device`, `time(` and wall-clock (`system_clock`)
      seeding are banned. Monotonic clocks (steady_clock) are fine —
      they time work, they don't influence it.

  tsa-suppression-justified
      Every use of RPQRES_NO_THREAD_SAFETY_ANALYSIS (outside its
      definition) must carry an inline justification comment on the
      same or the preceding line. Blanket analysis opt-outs rot.

  solver-fact-access
      src/resilience/ reads per-label facts through a LabelIndex and
      nothing else. Per-node scans (`OutFactsLive(`, `InFactsLive(`,
      `OutFacts(`, `InFacts(`) and a null check on a label index
      (`label_index == nullptr`, `index_ != nullptr`, ...) would bring
      back a second, unindexed solver path.

  one-counter-source
      In src/, every event is counted once, in an obs::MetricsRegistry
      family, and Stats structs are views read from a snapshot. A
      hand-kept `stats_` member that is mutated (`++stats_.x`,
      `--stats_.x`, `stats_.x += n`, `stats_.x = n`, `stats_ = Stats{}`)
      is a second counter store beside the families.

  exact-four-legged
      The classifier and the four-legged test decide Def 5.1 on the
      minimal DFA. Listing words up to a length bound (`WordsUpTo(`) in
      src/classify/ or src/lang/four_legged.* would bring back an
      incomplete search and its length knob.

  min-dfa-properties
      Locality, neutral letters, repeated letters and one-danglingness
      are read off the minimal DFA. Language algebra (`Determinize(`,
      `MinimalDfa(`, `Minimize(`, `AreEquivalent(`, `IsSubsetOf(`,
      `IntersectDfa(`, `EnfaConcat(`) in src/lang/local.cc,
      neutral_letter.cc, repeated_letter.cc, ro_enfa.cc or
      one_dangling.cc would bring back a second mechanism that builds
      automata to decide what the DFA already shows. one_dangling.cc
      also may not build L \ {xy} as a difference (`DifferenceDfa(`,
      `EnfaFromWord(`) or search mirror(L) (`.Mirror(`): Def 7.8 is
      symmetric under mirroring. The Prp 7.9 planner
      (src/resilience/one_dangling_resilience.cc) reverses the base's
      RO-εNFA instead of determinizing mirror(base) (`.Mirror(`).

Suppressions: a violating line is waived by `invariant-ok: <reason>`
(optionally `invariant-ok(<rule>): <reason>`) in a comment on the same
line or the line directly above. The reason is mandatory — an empty
one is itself a violation. The script counts suppressions and prints
the tally so reviews can see waivers grow.

Exit status: 0 clean, 1 violations found, 2 usage/self-test failure.

`--self-test` runs the scanner against built-in bad snippets and
asserts that exactly the seeded violations are reported.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SUPPRESS_RE = re.compile(r"invariant-ok(?:\((?P<rule>[a-z-]+)\))?:\s*(?P<reason>\S.*)?")

# Syscalls that fault/failpoints.h wraps; src/storage must use the wrappers.
RAW_SYSCALL_RE = re.compile(r"::(open|write|fsync|rename|ftruncate|close|mmap)\s*\(")

NONDETERMINISM_RES = [
    (re.compile(r"\bs?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\bsystem_clock\b"), "wall clock (std::chrono::system_clock)"),
]

TSA_OPTOUT = "RPQRES_NO_THREAD_SAFETY_ANALYSIS"

# The access paths src/resilience/ must not use beside its LabelIndex.
SOLVER_FACT_ACCESS_RES = [
    (re.compile(r"\b(Out|In)Facts(Live)?\s*\("), "per-node fact scan"),
    (re.compile(r"\b(label_index|index_)\s*[!=]=\s*nullptr\b|"
                r"\bnullptr\s*[!=]=\s*(label_index|index_)\b"),
     "null check on a label index"),
]

# Bounded word listing, banned where four-leggedness is decided.
WORDS_UP_TO_RE = re.compile(r"\bWordsUpTo\s*\(")

# Language algebra, banned where a property is read off the minimal DFA:
# per file, the calls it may not make and what to do instead.
LANGUAGE_ALGEBRA = (r"\bDeterminize|\bMinimalDfa|\bMinimize|\bAreEquivalent|"
                    r"\bIsSubsetOf|\bIntersectDfa|\bEnfaConcat")
READ_THE_DFA = (re.compile(rf"({LANGUAGE_ALGEBRA})\s*\("),
                "decide it on lang.min_dfa() directly")
MIN_DFA_PROPERTY_FILES = {
    "src/lang/local.cc": READ_THE_DFA,
    "src/lang/neutral_letter.cc": READ_THE_DFA,
    "src/lang/repeated_letter.cc": READ_THE_DFA,
    "src/lang/ro_enfa.cc": READ_THE_DFA,
    "src/lang/one_dangling.cc": (
        re.compile(rf"({LANGUAGE_ALGEBRA}|\bDifferenceDfa|\bEnfaFromWord|"
                   r"\.Mirror)\s*\("),
        "decide it on lang.min_dfa() directly; Def 7.8 is symmetric under "
        "mirroring"),
    "src/resilience/one_dangling_resilience.cc": (
        re.compile(r"(\.Mirror)\s*\("),
        "reverse the base's RO-εNFA (EnfaMirror) instead"),
}

# A mutation of a hand-kept `stats_` member (see one-counter-source).
STATS_MUTATION_RE = re.compile(
    r"(?:\+\+|--)\s*stats_\.|"
    r"\bstats_\.\w+\s*(?:\+\+|--|[-+*]?=(?!=))|"
    r"\bstats_\s*=(?!=)")


class Finding:
    def __init__(self, rule: str, path: str, line_no: int, message: str):
        self.rule = rule
        self.path = path
        self.line_no = line_no
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


def _suppression(lines: list[str], idx: int, rule: str):
    """Returns ("ok" | "empty-reason" | None) for line `idx` (0-based).

    A suppression applies if the marker sits on the violating line itself
    or anywhere in the contiguous `//` comment block directly above it.
    """
    probes = [idx]
    probe = idx - 1
    while probe >= 0 and lines[probe].lstrip().startswith("//"):
        probes.append(probe)
        probe -= 1
    for probe in probes:
        m = SUPPRESS_RE.search(lines[probe])
        if not m:
            continue
        if m.group("rule") and m.group("rule") != rule:
            continue
        return "ok" if m.group("reason") else "empty-reason"
    return None


def scan_file(rel_path: str, text: str):
    """Scans one file; returns (findings, suppression_count)."""
    findings: list[Finding] = []
    suppressions = 0
    lines = text.splitlines()
    in_storage = rel_path.startswith("src/storage/")
    in_workload = rel_path.startswith("src/workload/")
    in_resilience = rel_path.startswith("src/resilience/")
    in_src = rel_path.startswith("src/")
    decides_four_legged = (rel_path.startswith("src/classify/") or
                           rel_path.startswith("src/lang/four_legged."))
    min_dfa_banned = MIN_DFA_PROPERTY_FILES.get(rel_path)
    is_annotation_header = rel_path.endswith("util/thread_annotations.h")

    def check(idx: int, rule: str, message: str):
        nonlocal suppressions
        state = _suppression(lines, idx, rule)
        if state == "ok":
            suppressions += 1
        elif state == "empty-reason":
            findings.append(
                Finding(rule, rel_path, idx + 1,
                        "suppression without a reason: " + message))
        else:
            findings.append(Finding(rule, rel_path, idx + 1, message))

    for idx, line in enumerate(lines):
        if in_storage:
            m = RAW_SYSCALL_RE.search(line)
            if m:
                check(idx, "storage-raw-syscall",
                      f"raw ::{m.group(1)}( — use fault::{m.group(1).capitalize()} "
                      "or add an invariant-ok comment explaining why this "
                      "call is outside the crash-injection surface")
        if in_workload:
            for pattern, what in NONDETERMINISM_RES:
                if pattern.search(line):
                    check(idx, "workload-nondeterminism",
                          f"{what} in the deterministic workload layer — "
                          "draw from the seeded rng instead")
        if in_resilience:
            for pattern, what in SOLVER_FACT_ACCESS_RES:
                if pattern.search(line):
                    check(idx, "solver-fact-access",
                          f"{what} in a solver — read facts through the "
                          "LabelIndex (LabelIndex::Facts / FactsFrom / "
                          "FactsInto)")
        if in_src and STATS_MUTATION_RE.search(line):
            check(idx, "one-counter-source",
                  "hand-kept stats_ counter — count the event in a metric "
                  "family and read the Stats struct from a snapshot "
                  "(obs::ReadSampleFields)")
        if decides_four_legged and WORDS_UP_TO_RE.search(line):
            check(idx, "exact-four-legged",
                  "bounded word listing where four-leggedness is decided — "
                  "use the exact FindFourLeggedWitness on the minimal DFA")
        if min_dfa_banned:
            banned_re, instead = min_dfa_banned
            m = banned_re.search(line)
            if m:
                check(idx, "min-dfa-properties",
                      f"{m.group(1)}( where a property is read off the "
                      f"minimal DFA — {instead}")
        if TSA_OPTOUT in line and not is_annotation_header:
            # The opt-out demands a justification comment on its line or
            # the one above; reuse the suppression mechanism for that.
            check(idx, "tsa-suppression-justified",
                  f"{TSA_OPTOUT} without an invariant-ok justification")
    return findings, suppressions


def scan_tree(root: Path):
    findings: list[Finding] = []
    suppressions = 0
    for path in sorted(root.glob("src/**/*")):
        if path.suffix not in {".cc", ".h"}:
            continue
        rel = path.relative_to(root).as_posix()
        f, s = scan_file(rel, path.read_text(encoding="utf-8"))
        findings.extend(f)
        suppressions += s
    return findings, suppressions


# ---------------------------------------------------------------------------
# Self-test: seeded bad snippets and the exact findings they must produce.

SELF_TEST_CASES = [
    # (virtual path, source, expected list of (rule, line_no))
    (
        "src/storage/bad_segment.cc",
        "int fd = ::open(path, O_RDONLY);\n"
        "::close(fd);\n",
        [("storage-raw-syscall", 1), ("storage-raw-syscall", 2)],
    ),
    (
        "src/storage/suppressed_segment.cc",
        "// invariant-ok(storage-raw-syscall): read path, not crash-swept\n"
        "int fd = ::open(path, O_RDONLY);\n"
        "::close(fd);  // invariant-ok: error-path cleanup\n",
        [],
    ),
    (
        "src/storage/empty_reason.cc",
        "::fsync(fd);  // invariant-ok:\n",
        [("storage-raw-syscall", 1)],
    ),
    (
        "src/storage/wrong_rule_suppression.cc",
        "// invariant-ok(workload-nondeterminism): mismatched rule name\n"
        "::rename(a, b);\n",
        [("storage-raw-syscall", 2)],
    ),
    (
        "src/workload/bad_traffic.cc",
        "#include <ctime>\n"
        "uint64_t seed = time(nullptr);\n"
        "int r = rand();\n"
        "std::random_device rd;\n"
        "auto now = std::chrono::system_clock::now();\n",
        [
            ("workload-nondeterminism", 2),
            ("workload-nondeterminism", 3),
            ("workload-nondeterminism", 4),
            ("workload-nondeterminism", 5),
        ],
    ),
    (
        "src/workload/good_traffic.cc",
        "auto t0 = std::chrono::steady_clock::now();\n"
        "uint64_t draw = SplitMix64(state);\n",
        [],
    ),
    (
        "src/util/bad_optout.cc",
        "void Peek() RPQRES_NO_THREAD_SAFETY_ANALYSIS {\n"
        "}\n",
        [("tsa-suppression-justified", 1)],
    ),
    (
        "src/util/good_optout.cc",
        "// invariant-ok(tsa-suppression-justified): racy-read stats probe,\n"
        "void Peek() RPQRES_NO_THREAD_SAFETY_ANALYSIS {\n"
        "}\n",
        [],
    ),
    (
        "src/resilience/bad_solver.cc",
        "for (FactId f : db.OutFactsLive(v)) visit(f);\n"
        "for (FactId f : db_.InFacts(v)) visit(f);\n"
        "if (label_index != nullptr) return;\n"
        "if (index_ == nullptr) return;\n"
        "for (FactId f : index_.FactsFrom(label, v)) visit(f);\n",
        [
            ("solver-fact-access", 1),
            ("solver-fact-access", 2),
            ("solver-fact-access", 3),
            ("solver-fact-access", 4),
        ],
    ),
    (
        # The same scans are fine outside the solvers.
        "src/graphdb/rpq_eval.cc",
        "for (FactId f : db.OutFactsLive(v)) visit(f);\n",
        [],
    ),
    (
        "src/engine/bad_counters.cc",
        "  ++stats_.hits;\n"
        "  --stats_.commits;\n"
        "  stats_.unregistered += dropped;\n"
        "  stats_ = Stats{};\n"
        "  stats_.misses++;\n",
        [
            ("one-counter-source", 1),
            ("one-counter-source", 2),
            ("one-counter-source", 3),
            ("one-counter-source", 4),
            ("one-counter-source", 5),
        ],
    ),
    (
        # Reading a stats_ member, comparing it, or a view computed from a
        # snapshot is fine; so is a member whose name merely ends in stats_.
        "src/engine/good_counters.cc",
        "  return stats_;\n"
        "  if (stats_.hits == 0) return;\n"
        "  Stats stats = ReadSampleFields<Stats>(snapshot, kFields);\n"
        "  ++response.stats.search_nodes;\n"
        "  ++scratch_stats_.pops;\n",
        [],
    ),
    (
        # The rule covers src/ only.
        "tests/fake_counter_test.cc",
        "  ++stats_.hits;\n",
        [],
    ),
    (
        "src/lang/four_legged.cc",
        "  Result<std::vector<std::string>> r = lang.WordsUpTo(12);\n",
        [("exact-four-legged", 1)],
    ),
    (
        "src/classify/bad_classifier.cc",
        "  auto words = ifl.WordsUpTo (max_word_length);\n",
        [("exact-four-legged", 1)],
    ),
    (
        # Other analyses may still list short words.
        "src/lang/one_dangling.cc",
        "  Result<std::vector<std::string>> short_words = lang.WordsUpTo(2);\n",
        [],
    ),
    (
        "src/lang/neutral_letter.cc",
        "  Dfa inserted = MinimalDfa(InsertOne(dfa, e));\n"
        "  if (!IsSubsetOf(inserted, dfa)) return false;\n",
        [("min-dfa-properties", 1), ("min-dfa-properties", 2)],
    ),
    (
        "src/lang/local.cc",
        "  return AreEquivalent(Minimize(overapprox), lang.min_dfa());\n",
        [("min-dfa-properties", 1)],
    ),
    (
        "src/lang/repeated_letter.cc",
        "  Dfa d = Determinize (EnfaConcat(x, y));\n"
        "  bool empty = DfaIsEmptyLanguage(IntersectDfa(a, d));\n",
        [("min-dfa-properties", 1), ("min-dfa-properties", 2)],
    ),
    (
        # Reading the DFA is the point; other analyses may still build
        # automata, and so may the reference tests.
        "src/lang/ro_enfa.cc",
        "  std::vector<bool> useful = UsefulStates(lang.min_dfa());\n"
        "  if (!IsLocal(lang)) return Status::FailedPrecondition(msg);\n",
        [],
    ),
    (
        "src/lang/one_dangling.cc",
        "  Dfa base_dfa = Minimize(DifferenceDfa(a, b));\n"
        "  Dfa diff = DifferenceDfa (lang.min_dfa(), word);\n"
        "  Dfa word = MinimalDfa(EnfaFromWord(w));\n"
        "  Enfa w = EnfaFromWord(\"xy\");\n"
        "  return FindOneDanglingDecomposition(lang.Mirror());\n",
        [
            ("min-dfa-properties", 1),
            ("min-dfa-properties", 2),
            ("min-dfa-properties", 3),
            ("min-dfa-properties", 4),
            ("min-dfa-properties", 5),
        ],
    ),
    (
        # Cutting a run in a copy of the DFA is the point.
        "src/lang/one_dangling.cc",
        "  Dfa cut = a;\n"
        "  cut.SetTransition(q0, x, a.Next(r, x));\n"
        "  Language base = Language::FromDfa(cut);\n",
        [],
    ),
    (
        "src/resilience/one_dangling_resilience.cc",
        "  if (d.y_in_base) flipped_base = d.base.Mirror ();\n"
        "  Minimize(dfa);\n",
        [("min-dfa-properties", 1)],
    ),
    (
        # Reversing the RO-εNFA keeps it read-once; other solvers may mirror.
        "src/resilience/one_dangling_resilience.cc",
        "  if (plan.mirror_db) ro_base = EnfaMirror(ro_base);\n",
        [],
    ),
    (
        "src/resilience/resilience.cc",
        "  Language mirror = ifl.Mirror();\n",
        [],
    ),
    (
        "tests/lang_reference_test.cc",
        "  return AreEquivalent(Minimize(overapprox), lang.min_dfa());\n",
        [],
    ),
    (
        # Raw syscalls outside src/storage are out of scope for the rule.
        "src/fault/wrappers.cc",
        "return ::write(fd, buf, count);\n",
        [],
    ),
]


def self_test() -> int:
    failures = 0
    for rel_path, source, expected in SELF_TEST_CASES:
        findings, _ = scan_file(rel_path, source)
        got = [(f.rule, f.line_no) for f in findings]
        if got != expected:
            failures += 1
            print(f"self-test FAIL: {rel_path}")
            print(f"  expected: {expected}")
            print(f"  got:      {got}")
    if failures:
        print(f"self-test: {failures}/{len(SELF_TEST_CASES)} cases failed")
        return 2
    print(f"self-test: {len(SELF_TEST_CASES)} cases passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="repo root to scan (default: the checkout)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the scanner against seeded bad snippets")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings, suppressions = scan_tree(args.root)
    for finding in findings:
        print(finding)
    print(f"check_invariants: {len(findings)} violation(s), "
          f"{suppressions} justified suppression(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
