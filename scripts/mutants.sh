#!/bin/sh
# Mutation gate for the oracles: every patch under scripts/mutants/ breaks
# non-test code, and its tests run in internal/mapreduce unless a
# `# pkg: <path>` line before the patch's first diff names another package
# (git apply ignores text there). Most patches break it in a way one of the
# tables a lattice replaced used to catch (the patch is named for that
# table): the engine's differential, recovery and decode-once tables, killed
# by the configuration lattice, and the query tables, whose patches name the
# product lattice in ./internal/queryd. For each patch, on a copy of the working
# tree in a temporary directory — the real tree is never touched — apply the
# patch and run, in that package, the tests that must kill it:
# TestConfigLattice, or the tests a `# test: <regexp>` line there names. Some
# test must fail. A patch that no longer applies is an error, and so is a
# mutant that survives.
#
#   sh scripts/mutants.sh                 # every patch
#   sh scripts/mutants.sh a.patch b.patch # just these
set -eu

root="$(git rev-parse --show-toplevel)"
cd "$root"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

# The working tree as it stands: tracked and untracked files, minus ignored
# ones and tracked files deleted from the tree.
git ls-files -co --exclude-standard | while IFS= read -r f; do
    [ -e "$f" ] && printf '%s\n' "$f"
done >"$dir/files"
mkdir "$dir/tree"
tar -cf - -T "$dir/files" | tar -xf - -C "$dir/tree"

if [ "$#" -eq 0 ]; then
    set -- scripts/mutants/*.patch
fi

survived=0
total=0
for p in "$@"; do
    patch="$root/$p"
    case "$p" in /*) patch="$p" ;; esac
    name="$(basename "$p" .patch)"
    total=$((total + 1))
    if ! (cd "$dir/tree" && git apply --check "$patch" 2>"$dir/apply.err"); then
        echo "mutants: $name no longer applies:" >&2
        cat "$dir/apply.err" >&2
        exit 2
    fi
    (cd "$dir/tree" && git apply "$patch")
    tests="$(sed -n '/^diff /q; s/^# test: //p' "$patch" | head -n 1)"
    tests="${tests:-^TestConfigLattice\$}"
    pkg="$(sed -n '/^diff /q; s/^# pkg: //p' "$patch" | head -n 1)"
    pkg="${pkg:-./internal/mapreduce}"
    if (cd "$dir/tree" && go test -count=1 -run "$tests" "$pkg" >"$dir/test.log" 2>&1); then
        echo "mutants: $name SURVIVED ($tests)"
        survived=$((survived + 1))
    elif grep -q 'build failed' "$dir/test.log"; then
        echo "mutants: $name does not build:" >&2
        cat "$dir/test.log" >&2
        exit 2
    elif grep -q '^panic: ' "$dir/test.log"; then
        echo "mutants: $name killed (panic: $(sed -n 's/^panic: //p' "$dir/test.log" | head -n 1))"
    else
        echo "mutants: $name killed ($(grep -c -- '--- FAIL' "$dir/test.log" || true) failing rows)"
    fi
    (cd "$dir/tree" && git apply -R "$patch")
done

echo "mutants: $((total - survived)) of $total killed"
[ "$survived" -eq 0 ]
