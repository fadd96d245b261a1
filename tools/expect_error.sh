#!/usr/bin/env bash
# Fail-closed check (ctest): the command must exit 1 and print the expected
# message on stderr, as a caught exception does, not abort through
# std::terminate.
#
#   tools/expect_error.sh <expected-stderr-substring> <command> [args...]
set -uo pipefail

expected=${1:?usage: expect_error.sh <expected-stderr-substring> <command> [args...]}
shift

status=0
stderr=$("$@" 2>&1 >/dev/null) || status=$?
if [[ $status -ne 1 ]]; then
  echo "FAIL: expected exit 1, got $status; stderr: $stderr" >&2
  exit 1
fi
if [[ $stderr != *"$expected"* ]]; then
  echo "FAIL: stderr missing '$expected'; got: $stderr" >&2
  exit 1
fi
echo "OK: exit 1 with '$expected'"
