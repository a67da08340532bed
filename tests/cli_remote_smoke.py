#!/usr/bin/env python3
"""End-to-end smoke test of moela_cli against real moela_serve daemons.

Usage:
    cli_remote_smoke.py PATH/TO/moela_cli PATH/TO/moela_serve

Starts two cache-less daemons on ephemeral ports and checks that:
  * one sweep run inline, against one daemon (--connect A) and against
    both (--connect A --connect B) prints identical front rows (the '#'
    provenance comments carry wall time and cache flags, so they are
    ignored), and the one-daemon sweep travels as a single run verb;
  * a run the daemon rejects fails the invocation with exit 1 after one
    attempt (one daemon: no retry);
  * CLI-side validation does not depend on --connect: several --app
    values on a non-noc problem exit 2 with a remote target too;
  * one --shutdown drains every --connect daemon, and each exits 0.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time

SWEEP = ["--problem", "zdt1", "--algo", "moela", "--algo", "nsga2",
         "--replicates", "2", "--evals", "1000"]
LISTENING = re.compile(r"listening on (\S+):(\d+) ")


def start_daemon(serve, log_path):
    log = open(log_path, "w", encoding="utf-8")
    proc = subprocess.Popen([serve, "--port", "0", "--no-cache"],
                            stdout=subprocess.DEVNULL, stderr=log)
    log.close()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        with open(log_path, encoding="utf-8") as handle:
            match = LISTENING.search(handle.read())
        if match:
            return proc, f"{match.group(1)}:{match.group(2)}"
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError(f"{serve} did not report a listening port")


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def run_cli(cli, args):
    return subprocess.run([cli, *args], capture_output=True, text=True,
                          timeout=60, check=False)


def run_verbs(cli, endpoint):
    result = run_cli(cli, ["--connect", endpoint, "--metrics"])
    check(result.returncode == 0, result.stderr)
    series = json.loads(result.stdout)["metrics"]["moela_requests_total"]
    return sum(int(s["value"]) for s in series["series"]
               if s["labels"]["verb"] == "run")


def front_rows(cli, args):
    result = run_cli(cli, args)
    check(result.returncode == 0, f"moela_cli {' '.join(args)} exited "
          f"{result.returncode}:\n{result.stderr}")
    rows = [line for line in result.stdout.splitlines()
            if not line.startswith("#")]
    check(rows, f"moela_cli {' '.join(args)} printed no rows")
    return rows


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, serve = sys.argv[1:]
    with tempfile.TemporaryDirectory() as scratch:
        daemons = []
        try:
            for name in ("a", "b"):
                daemons.append(start_daemon(
                    serve, os.path.join(scratch, f"serve-{name}.log")))
            (_, a), (_, b) = daemons

            inline = front_rows(cli, SWEEP + ["--no-cache"])
            one = front_rows(cli, ["--connect", a] + SWEEP)
            verbs = run_verbs(cli, a)
            check(verbs == 1, f"one-daemon sweep took {verbs} run verbs")
            two = front_rows(cli, ["--connect", a, "--connect", b] + SWEEP)
            check(one == inline, "one-daemon rows differ from inline")
            check(two == inline, "two-daemon rows differ from inline")

            multi_app = run_cli(cli, ["--connect", a, "--problem", "zdt1",
                                      "--algo", "nsga2", "--app", "BFS",
                                      "--app", "SRAD", "--evals", "200"])
            check(multi_app.returncode == 2,
                  f"remote multi --app exited {multi_app.returncode}, want 2")
            check("only apply to the noc problem" in multi_app.stderr,
                  multi_app.stderr)

            rejected = run_cli(cli, ["--connect", a, "--problem", "zdt1",
                                     "--algo", "no-such-algorithm",
                                     "--evals", "200"])
            check(rejected.returncode == 1,
                  f"rejected remote run exited {rejected.returncode}, "
                  f"want 1:\n{rejected.stderr}")
            check("after 1 attempt(s)" in rejected.stderr, rejected.stderr)

            shutdown = run_cli(cli, ["--connect", a, "--connect", b,
                                     "--shutdown"])
            check(shutdown.returncode == 0, shutdown.stderr)
            for proc, endpoint in daemons:
                code = proc.wait(timeout=10)
                check(code == 0, f"daemon {endpoint} exited {code}")
        finally:
            for proc, _ in daemons:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    print("cli_remote_smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
