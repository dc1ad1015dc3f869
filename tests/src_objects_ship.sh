#!/bin/sh
# Usage: src_objects_ship.sh NM OBJECTS_LIST BINARIES_LIST
#
# Each list file names one path per line.  Fails, naming the object, when an
# object defines no strong text symbol (nm type T) that one of the binaries
# also defines: no shipped binary links it.
set -eu
nm=$1
objects=$2
binaries=$3
export LC_ALL=C

strong_text() { "$nm" -P --defined-only "$1" | awk '$2 == "T" { print $1 }' | sort -u; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

: > "$tmp/shipped"
while read -r bin; do
  [ -n "$bin" ] && strong_text "$bin" >> "$tmp/shipped"
done < "$binaries"
sort -u -o "$tmp/shipped" "$tmp/shipped"

status=0
count=0
while read -r obj; do
  [ -n "$obj" ] || continue
  count=$((count + 1))
  strong_text "$obj" > "$tmp/object"
  if [ -z "$(comm -12 "$tmp/object" "$tmp/shipped")" ]; then
    echo "not linked into any shipped binary: $obj"
    status=1
  fi
done < "$objects"
echo "$count library objects checked against $(wc -l < "$binaries") shipped binaries"
exit $status
