#!/usr/bin/env bash
# A manifest line carrying one of the removed distributed-search job
# fields (subtrees, subtree_prefix, resume_text) must fail through
# `svtox batch --local` exactly like any other unknown job field: the same
# exit code as a misspelled key, and an error naming the field.
#
# usage: cli_batch_removed_fields_test.sh <svtox> <workdir>
set -u

SVTOX=$1
WORK=$2
rm -rf "$WORK"
mkdir -p "$WORK"
ERR=$WORK/stderr.txt

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

run_manifest() {
  printf '%s\n' "$1" | "$SVTOX" batch --manifest - --local --workers 1 \
    >/dev/null 2>"$ERR"
  echo $?
}

reference=$(run_manifest '{"circuit":"c432","pennalty":5}')
[ "$reference" -ne 0 ] || fail "a misspelled job field was accepted"
grep -q "unknown job field 'pennalty'" "$ERR" || fail "unexpected error: $(cat "$ERR")"

for field in subtrees subtree_prefix resume_text; do
  case $field in
    subtrees) value=4 ;;
    *) value='"01"' ;;
  esac
  code=$(run_manifest "{\"circuit\":\"c432\",\"method\":\"heu2\",\"max_leaves\":100,\"$field\":$value}")
  [ "$code" = "$reference" ] ||
    fail "$field: exit $code, want $reference like any unknown field"
  grep -q "unknown job field '$field'" "$ERR" ||
    fail "$field: unexpected error: $(cat "$ERR")"
done
echo "PASS: removed job fields fail like unknown fields (exit $reference)"
