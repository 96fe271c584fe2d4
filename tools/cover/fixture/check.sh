# The coverage gate on its fixture; tools/cover/dune runs it from the build
# context root as `sh check.sh GATE FIXRUN`.  fixrun.exe runs from a scratch
# copy of a build directory, so its counts land in that copy (this also
# checks that the runtime finds the build directory).  coverfix.ml has six
# branch points; the run leaves two unhit.  The gate must
#   1. fail naming exactly the unhit branch the allowlist leaves out;
#   2. pass once that branch is listed too;
#   3. fail on an entry with an empty reason;
#   4. fail on stale entries: a listed branch that was hit, and one that
#      does not exist;
#   5. pass when the hit branch is listed as a race, which a run may hit
#      or not.
set -u
gate="$1"
src=tools/cover/fixture/lib
f=$src/coverfix.ml
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/default"
: > "$tmp/.lock"
cp "$2" "$tmp/default/fixrun.exe"
"$tmp/default/fixrun.exe" > /dev/null || { echo "fixture: fixrun.exe failed"; exit 1; }
tab="$(printf '\t')"
none="$f${tab}parse${tab}None${tab}arg: not an int"
neg="$f${tab}sign${tab}if n < 0 then${tab}arg: a negative input"

run () {
  printf '%s\n' "$@" > "$tmp/allow"
  "$gate" "$tmp/cover" "$tmp/allow" "$src" > "$tmp/out" 2>&1
}
fail () { echo "fixture: $1, got exit $st:"; cat "$tmp/out"; exit 1; }

run "$none"; st=$?
[ $st -eq 1 ] && [ "$(grep -c : "$tmp/out")" -eq 1 ] \
  && grep -q "^$f:1: never hit, not listed: sign${tab}if n < 0 then\$" "$tmp/out" \
  || fail "want exit 1 naming only sign's 'if n < 0 then'"
run "$none" "$neg"; st=$?
[ $st -eq 0 ] || fail "want exit 0 with both unhit branches listed"
run "$none" "$f${tab}sign${tab}if n < 0 then${tab}arg: "; st=$?
[ $st -eq 1 ] && grep -q 'entry needs' "$tmp/out" \
  || fail "want exit 1 on an empty reason"
run "$none" "$neg" "$f${tab}parse${tab}Some n${tab}arg: hit" \
  "$f${tab}parse${tab}Ok n${tab}arg: gone"; st=$?
[ $st -eq 1 ] && grep -q "listed but hit: parse${tab}Some n\$" "$tmp/out" \
  && grep -q "no longer exists: parse${tab}Ok n\$" "$tmp/out" \
  && [ "$(grep -c : "$tmp/out")" -eq 2 ] \
  || fail "want exit 1 naming the hit entry and the missing one"
run "$none" "$neg" "$f${tab}parse${tab}Some n${tab}race: hit in some runs"; st=$?
[ $st -eq 0 ] || fail "want exit 0 with the hit branch listed as a race"
