# Shell helpers for the CI distributed job. Source it from a step:
#
#	. .github/fleet.sh
#	W1=$(start_worker 8491 w1.log)

# start_worker PORT LOG starts bin/sweepworker on 127.0.0.1:PORT with its
# stderr in LOG, waits until /healthz answers (up to 50 polls 0.2 s apart)
# and prints the worker's PID. The worker's stdout goes to /dev/null, so a
# command substitution around the call returns without waiting for the
# worker to exit.
start_worker() {
  bin/sweepworker -addr "127.0.0.1:$1" -quiet > /dev/null 2> "$2" &
  echo "$!"
  for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$1/healthz" > /dev/null && break
    sleep 0.2
  done
}

# wait_jobs PORT N polls the worker on 127.0.0.1:PORT until its /healthz
# reports at least N finished jobs (up to 2000 polls 0.01 s apart) and
# fails if it never does. A worker runs a batch's jobs on its lanes in
# job order, at most one job per core at once, so a worker that has
# finished its first job of an 8-job batch is mid-batch on a host with
# fewer than 8 cores.
wait_jobs() {
  for _ in $(seq 1 2000); do
    n=$(curl -sf "http://127.0.0.1:$1/healthz" | jq .jobs_done) || n=0
    [ "$n" -ge "$2" ] && return 0
    sleep 0.01
  done
  return 1
}
