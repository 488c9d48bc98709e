#!/usr/bin/env bash
# Regression for the checked-choice CLI parses: a typo'd --path-search
# engine must exit with the usage code (2) and the diagnostic must name
# every registered engine, so the error doubles as documentation and a
# newly added backend cannot be forgotten in the message; `steiner` is
# rejected the same way. A value flag given no value must say so (not
# "unknown option"), --lookahead and --min-capacity-search must be
# rejected as unknown, and the usage text must list the output flags
# (--verify and friends). bgr_fuzz must reject `--mode steiner-dominance`
# with the usage code.
set -u

cli="$1"
fuzz_cli="$2"
fail() {
  echo "FAIL: $1" >&2
  echo "--- output ---" >&2
  echo "$out" >&2
  exit 1
}

out=$("$cli" @C1P1 --path-search bogus 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "expected exit 2 for unknown engine, got $status"
case "$out" in
  *"--path-search"*) ;;
  *) fail "diagnostic does not name the flag" ;;
esac
for engine in cached dijkstra; do
  case "$out" in
    *"$engine"*) ;;
    *) fail "diagnostic does not list engine '$engine'" ;;
  esac
done
case "$out" in
  *"bogus"*) ;;
  *) fail "diagnostic does not echo the rejected value" ;;
esac

# `steiner` is not an engine: the diagnostic names the valid ones.
out=$("$cli" @C1P1 --path-search steiner 2>&1)
status=$?
[ "$status" -eq 2 ] || fail "expected exit 2 for --path-search steiner, got $status"
case "$out" in
  *"must be cached, dijkstra"*"got 'steiner'"*) ;;
  *) fail "steiner diagnostic does not name the valid engines" ;;
esac

# A missing value is rejected with a diagnostic that names the flag and
# says a value is expected, not read past argv or called unknown.
for flag in --path-search --metrics-out --svg; do
  out=$("$cli" @C1P1 "$flag" 2>&1)
  status=$?
  [ "$status" -eq 2 ] ||
    fail "expected exit 2 for $flag without a value, got $status"
  case "$out" in
    *"$flag expects a value"*) ;;
    *) fail "diagnostic for $flag does not say it expects a value" ;;
  esac
  case "$out" in
    *"unknown option"*) fail "$flag without a value reported as unknown" ;;
  esac
done

# --lookahead and --min-capacity-search are not options: they must be
# rejected as unknown.
for flag in --lookahead --min-capacity-search; do
  out=$("$cli" @C1P1 "$flag" 2>&1)
  status=$?
  [ "$status" -eq 2 ] || fail "expected exit 2 for $flag, got $status"
  case "$out" in
    *"unknown option '$flag'"*) ;;
    *) fail "$flag is not reported as an unknown option" ;;
  esac
done

# `steiner-dominance` is not a fuzz mode.
out=$("$fuzz_cli" --seeds 1..1 --mode steiner-dominance 2>&1)
status=$?
[ "$status" -eq 2 ] ||
  fail "expected exit 2 for bgr_fuzz --mode steiner-dominance, got $status"
case "$out" in
  *"--mode expects"*"got 'steiner-dominance'"*) ;;
  *) fail "bgr_fuzz does not reject steiner-dominance as a mode" ;;
esac

# --help documents every flag the parser accepts, the output flags
# included, and exits 0.
out=$("$cli" --help 2>&1)
status=$?
[ "$status" -eq 0 ] || fail "expected exit 0 for --help, got $status"
for flag in --verify --stats --map --svg; do
  case "$out" in
    *"$flag"*) ;;
    *) fail "usage does not list '$flag'" ;;
  esac
done

echo "cli_errors: ok"
