#!/bin/sh
# wrapper for job demo-job
# backend: docker
set -e

# [host] create-job-dir
jobdir="$(mktemp -d)"
cd "$jobdir"

# [host] materialize-image
fetch-image "docker:///acme/tools:1.2" image

# [host] load-image
docker load -i image

# [host] ensure-user
ensure-container-user "$(id -u)" "$(id -g)"

# [host] stage-in
stage-in "in.dat"  # 100 bytes

# ---- in-container script (job-script.sh) ----
# [container] worker-setup
ensure-worker-tools
# [container] env-setup
export JAVA_HOME="/opt/java"
setup-credentials
# [container] launch-task
launch-instrumented "task01"
# ---- end in-container script ----
# [host] start-container
docker run -v "$jobdir:/scratch" -v "/data:/shared-data:ro" "docker:///acme/tools:1.2" ./job-script.sh

# [host] stop-container
docker stop

# [host] unload-image
docker rmi "docker:///acme/tools:1.2"

# [host] stage-out
stage-out "out.dat"  # 200 bytes

# [host] remove-job-dir
cd /
rm -rf "$jobdir"
