"""``storm``: open-loop flap storms through ``offer_at_rate``.

The paper's worm-event case (§II, §V.C): announce/withdraw flaps are
offered at a fixed rate with no backpressure, every arrival pre-
scheduled, while a ``KeepaliveProbe`` queues keepalives on the BGP
process. At 1500 updates/s pentium3 is above its capacity: its BGP
process falls behind and the session is lost. At 1000 updates/s xeon
is below its capacity and the session holds. One operation is one
storm rate on one platform.
"""

from __future__ import annotations

from repro.benchmark import KeepaliveProbe, offer_at_rate
from repro.benchmark.harness import SPEAKER1, SPEAKER1_ADDR, SPEAKER1_ASN
from repro.bgp.policy import ACCEPT_ALL
from repro.bgp.speaker import PeerConfig
from repro.systems import build_system
from repro.workload.tablegen import generate_table
from repro.workload.updates import UpdateStreamBuilder

from workloads import OperationFailed, Outcome, Problems, attempt, canonical

#: Prefixes flapped by the storm.
TABLE_SIZE = 400
#: Virtual seconds each storm lasts.
STORM_SECONDS = 3.0
#: Keepalive period and hold time, in the 1:3 ratio of BGP's defaults.
KEEPALIVE_INTERVAL = 0.5
HOLD_TIME = 1.5

#: (platform, offered updates/s, does the session survive?)
STORMS = (
    ("pentium3", 1500.0, False),
    ("xeon", 1000.0, True),
)


class Workload:
    def __init__(self, seed: int):
        self.table = generate_table(TABLE_SIZE, seed)
        builder = UpdateStreamBuilder(SPEAKER1_ASN, SPEAKER1_ADDR)
        self.packets: dict[float, list[bytes]] = {}
        for _platform, rate, _survives in STORMS:
            total = int(rate * STORM_SECONDS)
            rounds = -(-total // TABLE_SIZE)
            self.packets[rate] = builder.flap_storm(self.table, rounds=rounds)[:total]

    def _storm(self, platform: str, rate: float):
        packets = self.packets[rate]
        router = build_system(platform)
        router.add_peer(
            PeerConfig(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR, ACCEPT_ALL, ACCEPT_ALL)
        )
        router.handshake(SPEAKER1, SPEAKER1_ASN, SPEAKER1_ADDR)
        router.reset_counters()
        probe = KeepaliveProbe(
            router, interval=KEEPALIVE_INTERVAL, hold_time=HOLD_TIME, horizon=STORM_SECONDS
        )
        offer_at_rate(router, SPEAKER1, packets, rate)
        router.run_until_idle()
        report = probe.stop()
        if router.packets_completed != len(packets):
            raise OperationFailed(
                f"{router.packets_completed} of {len(packets)} offered packets completed"
            )
        return router.transactions_completed, (router, report)

    def run_pass(self) -> "list[Outcome]":
        return [
            attempt(f"{platform}-{rate:g}", lambda p=platform, r=rate: self._storm(p, r))
            for platform, rate, _survives in STORMS
        ]

    def expected_rib(self, rate: float) -> "dict[object, tuple[int, ...]]":
        """Loc-RIB after the storm, from the storm's round structure:
        round r announces every prefix (AS path with r % 3 extra hops)
        when r is even and withdraws it when r is odd; the storm is cut
        after ``rate * STORM_SECONDS`` one-prefix packets."""
        total = int(rate * STORM_SECONDS)
        full_rounds, head = divmod(total, TABLE_SIZE)
        expected = {}
        for index, entry in enumerate(self.table):
            last_round = full_rounds if index < head else full_rounds - 1
            if last_round >= 0 and last_round % 2 == 0:
                expected[entry.prefix] = entry.path_via(SPEAKER1_ASN, last_round % 3)
        return expected

    def check(self, outcomes: "list[Outcome]", problems: Problems) -> None:
        for outcome, (platform, rate, survives) in zip(outcomes, STORMS):
            if not outcome.ok:
                continue
            router, report = outcome.value
            rib = {
                route.prefix: route.attributes.as_path.all_asns()
                for route in router.speaker.loc_rib.routes()
            }
            problems.expect(
                rib == self.expected_rib(rate),
                f"{outcome.name}: final Loc-RIB differs from the storm's last "
                f"announce/withdraw per prefix ({len(rib)} routes)",
            )
            problems.expect(
                report.session_survives == survives,
                f"{outcome.name}: worst keepalive gap {report.max_gap:.3f}s against hold "
                f"time {HOLD_TIME}s, session {'held' if report.session_survives else 'lost'}",
            )

    def digest(self, outcomes: "list[Outcome]") -> str:
        rows = []
        for outcome in outcomes:
            if not outcome.ok:
                rows.append([outcome.name, outcome.error])
                continue
            router, report = outcome.value
            rows.append([
                outcome.name,
                outcome.transactions,
                router.now,
                report.completions,
                sorted(
                    (str(route.prefix), route.attributes.as_path.all_asns())
                    for route in router.speaker.loc_rib.routes()
                ),
            ])
        return canonical(rows)

    def finish(
        self, outcomes: "list[Outcome]", problems: Problems, traced: bool
    ) -> "dict[str, float]":
        return {}
