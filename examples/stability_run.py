#!/usr/bin/env python3
"""Stability run: daily-use workloads with periodic attacks (§4.2.4-§4.6.4).

For every server, the script drives a long, seeded stream of ordinary requests
with the documented attack injected every N requests, under the
failure-oblivious build, and reports whether service stayed flawless and what
the administrator's memory-error log recorded — including the two benign
errors the paper highlights (Sendmail's wake-up error and Midnight Commander's
blank-configuration-line error).  Each run is a one-instance fleet: the
result's ``instances[0]`` is the server's tally.

Run with:  python examples/stability_run.py
"""

from repro.harness.report import format_simple_table
from repro.harness.stability import run_stability_experiment
from repro.servers import SERVER_CLASSES
from repro.workloads.attacks import midnight_commander_blank_line_config


def main() -> None:
    rows = []
    for server_name in sorted(SERVER_CLASSES):
        result = run_stability_experiment(
            server_name,
            "failure-oblivious",
            total_requests=150,
            attack_every=20,
            scale=0.25,
        ).instances[0]
        rows.append(
            (
                server_name,
                result.legitimate_served,
                result.attacks_survived,
                result.attack_requests,
                result.memory_errors_logged,
                "yes" if result.flawless else "NO",
            )
        )
    print(
        format_simple_table(
            ["server", "legit served", "attacks survived", "attacks sent", "errors logged", "flawless"],
            rows,
            title="Failure-oblivious builds under daily use with periodic attacks",
        )
    )

    print("\nAdministrator error-log highlights:")
    sendmail = run_stability_experiment(
        "sendmail", "failure-oblivious", total_requests=60, attack_every=15, scale=0.25
    ).instances[0]
    wakeups = sendmail.error_sites.get("sendmail.daemon_wakeup", 0)
    print(f"  sendmail: {wakeups} wake-up errors logged — the benign error that makes the"
          " Bounds Check build unusable (§4.4.4)")

    mc = run_stability_experiment(
        "midnight-commander", "failure-oblivious", total_requests=60, attack_every=15,
        scale=0.25,
    ).instances[0]
    print(f"  midnight-commander: symlink errors logged at"
          f" {sum(1 for site in mc.error_sites if 'symlink' in site)} site(s);"
          " with blank configuration lines the parser also logs one error per blank line"
          f" (config used here: {list(midnight_commander_blank_line_config())[0]})")


if __name__ == "__main__":
    main()
