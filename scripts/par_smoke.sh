#!/usr/bin/env bash
# End-to-end smoke of the parallel checking path: `mtc gen` must produce
# text and binary corpora that load identically, and `mtc check -j N`
# must print byte-identical output (stats line, verdict, counterexample)
# for every N at every level (strong and weak) on clean and faulty
# histories in both formats; text ingest rejects a glued op token with
# its line number and reads a CRLF / commented respelling of a history
# exactly like the original.  Also runs
# the service smoke with MTC_JOBS set, exercising multi-shard sessions
# end to end.  Wired into `dune build @check` from the root dune file.
set -u

MTC="$1"
TMP=$(mktemp -d)
cleanup() { rm -rf "$TMP"; }
trap cleanup EXIT

fail() { echo "par-smoke: FAIL: $*" >&2; exit 1; }

# -- fixtures: a clean generated corpus (text + bin) and two faulty runs
"$MTC" gen --txns 3000 --keys 300 --sessions 8 --seed 11 \
  --out "$TMP/clean.hist" --out-bin "$TMP/clean.bin" >/dev/null \
  || fail "mtc gen must succeed"
"$MTC" run --level ser --fault lost-update --fault-p 0.3 --txns 800 \
  --seed 7 -o "$TMP/faulty.hist" >/dev/null 2>&1
[ -f "$TMP/faulty.hist" ] || fail "faulty fixture must be written"
# stale reads: passes RC and RA, fails CC (lost updates pass all three)
"$MTC" run --level si --fault causality-violation --fault-p 0.2 --txns 800 \
  --seed 7 -o "$TMP/stale.hist" >/dev/null 2>&1
[ -f "$TMP/stale.hist" ] || fail "stale-read fixture must be written"
if "$MTC" check "$TMP/stale.hist" --level causal > /dev/null; then
  fail "the stale-read fixture must fail causal"
fi

# -- the binary and text encodings must decode to the same history:
# identical stats lines and identical verdicts
check_out() { # file level jobs -> stdout (exit code tolerated)
  "$MTC" check "$1" --level "$2" -j "$3"
}

for level in sser ser si; do
  check_out "$TMP/clean.hist" "$level" 1 > "$TMP/text.out" \
    || fail "clean text history must pass $level"
  check_out "$TMP/clean.bin" "$level" 1 > "$TMP/bin.out" \
    || fail "clean bin history must pass $level"
  cmp -s "$TMP/text.out" "$TMP/bin.out" \
    || fail "text and bin checks disagree at $level"
done

# -- byte-identical output across -j on every (file, level) pair,
# including violating histories (counterexample selection is the part
# most at risk of nondeterminism); the weak levels share the pipeline
for f in "$TMP/clean.bin" "$TMP/faulty.hist" "$TMP/stale.hist"; do
  for level in ser si rc ra causal; do
    check_out "$f" "$level" 1 > "$TMP/j1.out"; rc1=$?
    for j in 2 4; do
      check_out "$f" "$level" "$j" > "$TMP/j$j.out"; rc=$?
      [ "$rc" -eq "$rc1" ] \
        || fail "$(basename "$f") $level: exit $rc at -j $j vs $rc1 at -j 1"
      cmp -s "$TMP/j1.out" "$TMP/j$j.out" \
        || fail "$(basename "$f") $level: output differs at -j $j (diff $TMP/j1.out $TMP/j$j.out)"
    done
  done
done

# -- text ingest: a glued op token (a missing space) is an error naming
# its line at every -j, never a silently shorter transaction
printf 'mtc-history v1\nkeys 3\nsessions 1\ntxn 1 1 C 1 1 R(x0)=0\ntxn 2 1 C 2 2 R(x1)=0W(x2):=3\n' \
  > "$TMP/glued.hist"
for j in 1 2; do
  "$MTC" check "$TMP/glued.hist" -l ser -j "$j" > /dev/null 2> "$TMP/glued.err"
  rc=$?
  [ "$rc" -eq 2 ] || fail "glued op token: exit $rc at -j $j, want 2"
  grep -q 'line 5: bad operation "R(x1)=0W(x2):=3"' "$TMP/glued.err" \
    || fail "glued op token: the error must name line 5 at -j $j ($(cat "$TMP/glued.err"))"
done

# -- the same history respelled (CRLF line ends, a comment line and a
# blank line between txn lines) must check exactly like the original
awk '{ printf "%s\r\n", $0 } NR == 40 { printf "# a comment\r\n\r\n" }' \
  "$TMP/faulty.hist" > "$TMP/respelled.hist"
for level in si ser sser; do
  check_out "$TMP/faulty.hist" "$level" 1 > "$TMP/orig.out"; rc1=$?
  check_out "$TMP/respelled.hist" "$level" 1 > "$TMP/resp.out"; rc=$?
  [ "$rc" -eq "$rc1" ] \
    || fail "respelled faulty.hist $level: exit $rc vs $rc1 for the original"
  cmp -s "$TMP/orig.out" "$TMP/resp.out" \
    || fail "respelled faulty.hist $level: output differs (diff $TMP/orig.out $TMP/resp.out)"
done

# -- explicit --format must agree with sniffing, and reject mismatches
"$MTC" check "$TMP/clean.bin" --format bin -l ser -j 2 > /dev/null \
  || fail "--format bin must accept a bin file"
"$MTC" check "$TMP/clean.hist" --format text -l ser > /dev/null \
  || fail "--format text must accept a text file"
if "$MTC" check "$TMP/clean.bin" --format text -l ser > /dev/null 2>&1; then
  fail "--format text on a bin file must fail"
fi

# -- the service under multi-shard settings: reuse the service smoke
# with MTC_JOBS exported, so every `mtc serve` in it runs sharded
SMOKE="$(dirname "$0")/service_smoke.sh"
if [ -f "$SMOKE" ]; then
  for j in 2 4; do
    MTC_JOBS=$j bash "$SMOKE" "$MTC" \
      || fail "service smoke must pass with MTC_JOBS=$j"
  done
fi

echo "par-smoke: OK"
