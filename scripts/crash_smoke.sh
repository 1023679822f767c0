#!/usr/bin/env bash
# Crash-recovery smoke of the durable checking service: serve with a
# write-ahead log, stream a clean and a (late-)faulty history
# concurrently, kill -9 the server mid-feed, restart it on the same
# directory and require both sessions to resume where the log ends —
# the clean one finishing with every transaction accounted for, the
# faulty one rendering a counterexample byte-identical to an
# uninterrupted run's (its reads span the crash, so this also proves
# the restored checker state is faithful).  Also asserts the event-loop
# architecture: a herd of idle connections must not cost the server a
# thread each.  Wired into `dune build @check` from the root dune file.
set -u

MTC="$1"
TMP=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "crash-smoke: FAIL: $*" >&2; exit 1; }

wait_sock() {
  for _ in $(seq 1 100); do [ -S "$1" ] && return 0; sleep 0.05; done
  return 1
}

# Everything the faulty feed prints from the first violation line on —
# the multi-line rendered counterexample.
rendered_of() { sed -n '/violation/,$p' "$1"; }

# -- fixtures: a clean SER history and an SI lost-update history whose
#    first violation sits late in commit order (seed-picked), so the
#    kill below lands while that session is still clean
"$MTC" run --level ser --txns 300 --keys 10 --seed 11 -o "$TMP/good.hist" \
  >/dev/null || fail "clean run must pass"
"$MTC" run --level si --txns 200 --keys 10 --seed 11 \
  --fault lost-update --fault-p 0.02 -o "$TMP/bad.hist" >/dev/null
[ $? -eq 1 ] || fail "faulty run must report a violation"

# -- reference rendering: an uninterrupted feed to a non-durable server
SOCK="$TMP/ref.sock"
"$MTC" serve --listen "unix:$SOCK" -j 2 > "$TMP/ref_serve.log" 2>&1 &
SERVER_PID=$!
wait_sock "$SOCK" || fail "reference server did not come up"
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si > "$TMP/ref_feed.out"
[ $? -eq 1 ] || fail "reference feed(bad) must exit 1"
rendered_of "$TMP/ref_feed.out" > "$TMP/ref_rendered"
[ -s "$TMP/ref_rendered" ] || fail "reference feed must render a violation"
kill -TERM "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""

# -- durable server, slowed so the kill is guaranteed to be mid-feed
SOCK="$TMP/mtc.sock"
WAL="$TMP/wal"
"$MTC" serve --listen "unix:$SOCK" --wal-dir "$WAL" --drain-delay 0.005 \
  -j 2 > "$TMP/serve1.log" 2>&1 &
SERVER_PID=$!
wait_sock "$SOCK" || fail "durable server did not come up (see $TMP/serve1.log)"
grep -q "durable in" "$TMP/serve1.log" || fail "server must announce the WAL dir"

"$MTC" feed "$TMP/good.hist" -a "unix:$SOCK" --level ser \
  > "$TMP/feed_good.out" 2>&1 &
GOOD_FEED=$!
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si \
  > "$TMP/feed_bad.out" 2>&1 &
BAD_FEED=$!

sleep 0.5
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""
wait "$GOOD_FEED" 2>/dev/null
[ $? -ne 0 ] || fail "feed(good) must fail when the server is killed under it"
wait "$BAD_FEED" 2>/dev/null
[ $? -ne 0 ] || fail "feed(bad) must fail when the server is killed under it"

GOOD_SID=$(sed -n 's/^session \([0-9]*\) opened$/\1/p' "$TMP/feed_good.out")
BAD_SID=$(sed -n 's/^session \([0-9]*\) opened$/\1/p' "$TMP/feed_bad.out")
[ -n "$GOOD_SID" ] && [ -n "$BAD_SID" ] \
  || fail "both feeds must have printed their session ids before the crash"

# -- the log must hold both sessions, mid-stream, with no close record
"$MTC" wal-dump "$WAL" > "$TMP/dump1.out" || fail "wal-dump must read $WAL"
grep -q "session $GOOD_SID: opened, " "$TMP/dump1.out" \
  || fail "WAL must hold the clean session (see $TMP/dump1.out)"
grep -q "session $BAD_SID: opened, " "$TMP/dump1.out" \
  || fail "WAL must hold the faulty session"
grep -q "closed" "$TMP/dump1.out" \
  && fail "no session may have a close record after kill -9 mid-feed"

# -- restart on the same directory, different shard count (sessions
#    re-home to sid mod nshards on restore).  kill -9 left the stale
#    socket file behind; remove it so wait_sock sees the new bind.
rm -f "$SOCK"
"$MTC" serve --listen "unix:$SOCK" --wal-dir "$WAL" -j 3 \
  > "$TMP/serve2.log" 2>&1 &
SERVER_PID=$!
wait_sock "$SOCK" || fail "restarted server did not come up (see $TMP/serve2.log)"

# -- idle connections cost fds, not threads
"$MTC" swarm -a "unix:$SOCK" -n 100 --hold 0.5 > "$TMP/swarm.out" &
SWARM=$!
sleep 0.3
THREADS=$(awk '/^Threads:/ {print $2}' "/proc/$SERVER_PID/status")
wait "$SWARM" || fail "swarm must open all 100 connections (see $TMP/swarm.out)"
grep -q "open_conns=10[01]" "$TMP/swarm.out" \
  || fail "server must report the idle herd in open_conns (see $TMP/swarm.out)"
[ -n "$THREADS" ] && [ "$THREADS" -lt 50 ] \
  || fail "100 idle connections must not cost threads (Threads: $THREADS)"

# -- resume the clean session: the verdict must account for EVERY
#    transaction, pre- and post-crash
"$MTC" feed "$TMP/good.hist" -a "unix:$SOCK" --level ser \
  --resume "$GOOD_SID" > "$TMP/resume_good.out"
[ $? -eq 0 ] || fail "resumed feed(good) must pass (see $TMP/resume_good.out)"
grep -q "^session $GOOD_SID resumed at seq" "$TMP/resume_good.out" \
  || fail "feed --resume must report the server's resume point"
TOTAL=$(sed -n 's/^\([0-9]*\) txns.*/\1/p' "$TMP/resume_good.out")
grep -q "PASS ($TOTAL transactions accepted)" "$TMP/resume_good.out" \
  || fail "resumed session must account for all $TOTAL transactions"

# -- the faulty session stays detached through this incarnation: a
#    graceful stop must carry it forward in a snapshot (the direct
#    Online serialization, no WAL replay on the next restore)
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
[ $? -eq 0 ] || fail "durable server must exit 0 on SIGTERM"
SERVER_PID=""
grep -q "snap-" <(ls "$WAL") || fail "final checkpoint must leave snapshots"
# ... and wal-dump must read them back: the detached faulty session is a
# live SI snapshot entry (its violation lies after the kill)
"$MTC" wal-dump "$WAL" > "$TMP/dump2.out" \
  || fail "wal-dump must read the checkpointed $WAL"
grep -q "session $BAD_SID: SI, 10 keys, last_seq [0-9]*, live (" \
  "$TMP/dump2.out" \
  || fail "snapshot must hold the faulty session live (see $TMP/dump2.out)"

rm -f "$SOCK"
"$MTC" serve --listen "unix:$SOCK" --wal-dir "$WAL" -j 2 \
  > "$TMP/serve3.log" 2>&1 &
SERVER_PID=$!
wait_sock "$SOCK" || fail "second restart did not come up (see $TMP/serve3.log)"

# -- resume the faulty session from its snapshot: the remainder of the
#    stream must trip the violation, and the counterexample (whose
#    reads span the crash AND the snapshot) must render byte-identically
#    to the uninterrupted run
"$MTC" feed "$TMP/bad.hist" -a "unix:$SOCK" --level si \
  --resume "$BAD_SID" > "$TMP/resume_bad.out"
[ $? -eq 1 ] || fail "resumed feed(bad) must report the violation (exit 1)"
grep -q "^session $BAD_SID resumed at seq" "$TMP/resume_bad.out" \
  || fail "feed --resume must report the faulty session's resume point"
rendered_of "$TMP/resume_bad.out" > "$TMP/resumed_rendered"
cmp -s "$TMP/ref_rendered" "$TMP/resumed_rendered" \
  || fail "counterexample must be byte-identical across the crash \
(diff $TMP/ref_rendered $TMP/resumed_rendered)"

# -- graceful shutdown still works with durability on
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
rc=$?
SERVER_PID=""
[ $rc -eq 0 ] || fail "durable server must exit 0 on SIGTERM (got $rc)"

echo "crash-smoke: OK"
