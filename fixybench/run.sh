#!/usr/bin/env bash
# Runs the Fixy benchmark from the root of a checkout:
#
#   bash fixybench/run.sh --workload lyft --seed 0 --seconds 10 --trace 0
#
# The first run builds the program's sources and the harness with this
# directory's sbt build; later runs reuse the build until a source changes.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -d "$root/src/main/scala/repro" ] || [ ! -d "$root/jobs" ]; then
  echo "fixybench: the program's sources (src/main/scala, jobs) are not in $root" >&2
  exit 2
fi

build="$here/target"
classpath="$build/classpath.txt"
if [ ! -s "$classpath" ] || [ -n "$(find "$root/src/main" "$root/jobs" "$here/src/main" "$here/build.sbt" \
    -newer "$classpath" -print -quit)" ]; then
  (cd "$here" && sbt --batch -Dsbt.log.noformat=true -Dsbt.server.autostart=false \
    -Dsbt.global.base="$build/sbt-global" writeClasspath) >&2
fi

mkdir -p "$build/tmp"
exec java -Xms3g -Xmx3g -XX:+UseParallelGC -XX:-UseDynamicNumberOfCompilerThreads -XX:-UsePerfData \
  --add-opens=java.base/java.lang=ALL-UNNAMED --add-opens=java.base/java.lang.invoke=ALL-UNNAMED \
  --add-opens=java.base/java.lang.reflect=ALL-UNNAMED --add-opens=java.base/java.io=ALL-UNNAMED \
  --add-opens=java.base/java.net=ALL-UNNAMED --add-opens=java.base/java.nio=ALL-UNNAMED \
  --add-opens=java.base/java.util=ALL-UNNAMED --add-opens=java.base/java.util.concurrent=ALL-UNNAMED \
  --add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED --add-opens=java.base/jdk.internal.ref=ALL-UNNAMED \
  --add-opens=java.base/sun.nio.ch=ALL-UNNAMED --add-opens=java.base/sun.nio.cs=ALL-UNNAMED \
  --add-opens=java.base/sun.security.action=ALL-UNNAMED --add-opens=java.base/sun.util.calendar=ALL-UNNAMED \
  -Djava.io.tmpdir="$build/tmp" \
  -Dspark.ui.enabled=false -Dspark.driver.host=127.0.0.1 \
  -Dlog4j2.configurationFile="$here/log4j2.properties" -Dfixybench.dir="$here" \
  -cp "$(cat "$classpath")" fixybench.Main "$@"
