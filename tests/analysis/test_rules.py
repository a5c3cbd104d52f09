"""Fixture-driven self-tests: each rule fires with exact id and location."""

from pathlib import Path

import pytest

from repro.analysis import SourceFile, lint_sources, rules_by_id

FIXTURES = Path(__file__).parent / "fixtures"


def load(name: str, relpath: str) -> SourceFile:
    return SourceFile.from_path(FIXTURES / name, relpath=relpath)


def findings(name: str, rule: str, relpath: str | None = None):
    source = load(name, relpath or f"core/{name}")
    report = lint_sources([source], rules=rules_by_id([rule]))
    return report


def locations(report):
    return [(diag.rule, diag.line) for diag in report.diagnostics]


# -- RL001: raw quorum arithmetic ------------------------------------------------


def test_rl001_fires_on_each_pattern():
    report = findings("rl001_bad.py", "RL001")
    assert locations(report) == [
        ("RL001", 5),  # n - t
        ("RL001", 9),  # 2*t + 1
        ("RL001", 13),  # n // 3
        ("RL001", 17),  # 1 + t*2 (commuted)
        ("RL001", 21),  # bare 3*t in a comparison
    ]
    assert all(d.severity == "error" for d in report.diagnostics)
    assert all("QuorumSystem" in d.hint for d in report.diagnostics)


def test_rl001_clean_fixture_is_clean():
    assert findings("rl001_ok.py", "RL001").diagnostics == []


def test_rl001_skips_adversary_package():
    source = load("rl001_bad.py", "adversary/quorums.py")
    report = lint_sources([source], rules=rules_by_id(["RL001"]))
    assert report.diagnostics == []


# -- RL002: discarded verify()/combine() ----------------------------------------


def test_rl002_fires_on_discarded_results():
    report = findings("rl002_bad.py", "RL002")
    assert locations(report) == [
        ("RL002", 5),
        ("RL002", 10),
        ("RL002", 11),
        ("RL002", 15),  # batch verify_shares
        ("RL002", 16),  # verify_dleq_batch
        ("RL002", 17),  # verify_batch
        ("RL002", 22),  # verify_shares with the party's seeded memo
        ("RL002", 23),  # verify_dleq_shares
        ("RL002", 29),  # ShareScreen.qualified_shares (offer on line 28 is not a gate)
        ("RL002", 30),  # offer_coin_share
    ]
    assert "verify" in report.diagnostics[0].message


def test_rl002_clean_fixture_is_clean():
    assert findings("rl002_ok.py", "RL002").diagnostics == []


def test_rl002_scope_is_core_crypto_smr():
    source = load("rl002_bad.py", "apps/notary.py")
    report = lint_sources([source], rules=rules_by_id(["RL002"]))
    assert report.diagnostics == []
    for scoped in ("core/x.py", "crypto/x.py", "smr/x.py"):
        source = load("rl002_bad.py", scoped)
        assert lint_sources([source], rules=rules_by_id(["RL002"])).diagnostics


# -- RL003: nondeterminism ------------------------------------------------------


def test_rl003_fires_on_each_pattern():
    report = findings("rl003_bad.py", "RL003")
    assert locations(report) == [
        ("RL003", 9),  # random.choice
        ("RL003", 13),  # time.time
        ("RL003", 17),  # datetime.now
        ("RL003", 21),  # dict.popitem
        ("RL003", 25),  # unsorted for over .items()
        ("RL003", 31),  # list comprehension over .values()
        ("RL003", 35),  # generator over .values() fed to next()
    ]


def test_rl003_clean_fixture_is_clean():
    assert findings("rl003_ok.py", "RL003").diagnostics == []


# -- RL004: message registration / handling (project-wide) ----------------------


def test_rl004_unregistered_and_unhandled():
    core = load("rl004_core.py", "core/rl004_core.py")
    report = lint_sources([core], rules=rules_by_id(["RL004"]))
    text = core.text
    sent_unregistered_line = text[: text.index("class SentUnregistered")].count("\n") + 1
    unhandled_line = text[: text.index("class RegisteredUnhandled")].count("\n") + 1
    assert locations(report) == [
        ("RL004", sent_unregistered_line),
        ("RL004", unhandled_line),
    ]
    assert "never registered" in report.diagnostics[0].message
    assert "no handler" in report.diagnostics[1].message


def test_rl004_silent_without_definitions_in_scope():
    # The same definitions outside core/ are not messages.
    elsewhere = load("rl004_core.py", "apps/rl004_core.py")
    report = lint_sources([elsewhere], rules=rules_by_id(["RL004"]))
    assert report.diagnostics == []


# -- RL005: async hygiene -------------------------------------------------------


def test_rl005_fires_on_dropped_coroutine_and_unguarded_write():
    report = findings("rl005_bad.py", "RL005")
    assert locations(report) == [("RL005", 9), ("RL005", 11)]
    assert "never awaited" in report.diagnostics[0].message
    assert "after an await" in report.diagnostics[1].message


def test_rl005_clean_fixture_is_clean():
    assert findings("rl005_ok.py", "RL005").diagnostics == []


def test_rl005_transport_orphaned_tasks_and_unawaited_sends():
    report = findings("rl005_transport_bad.py", "RL005", relpath="net/transport.py")
    assert locations(report) == [("RL005", 6), ("RL005", 7), ("RL005", 8)]
    assert "dropped" in report.diagnostics[0].message
    assert "add_done_callback" in report.diagnostics[1].message
    assert "awaitable" in report.diagnostics[2].message


def test_rl005_transport_clean_fixture_is_clean():
    for relpath in ("net/transport.py", "net/runtime.py"):
        report = findings("rl005_transport_ok.py", "RL005", relpath=relpath)
        assert report.diagnostics == []


def test_rl005_scope_excludes_the_simulator():
    report = findings("rl005_transport_bad.py", "RL005", relpath="net/simulator.py")
    assert report.diagnostics == []


def test_rl005_unbounded_reads_in_chaos_layer():
    for relpath in ("net/runtime.py", "net/cluster.py", "net/chaos.py"):
        report = findings("rl005_reads_bad.py", "RL005", relpath=relpath)
        assert locations(report) == [
            ("RL005", 7),   # proc.stdout.readline()
            ("RL005", 12),  # event.wait()
            ("RL005", 16),  # queue.get()
            ("RL005", 21),  # reader.readexactly()
            ("RL005", 25),  # proc.wait()
        ]
        assert all("no timeout" in d.message for d in report.diagnostics)
        assert all("noqa-RL005" in d.hint for d in report.diagnostics)


def test_rl005_unbounded_reads_clean_when_bounded_or_justified():
    report = findings("rl005_reads_ok.py", "RL005", relpath="net/chaos.py")
    assert report.diagnostics == []
    assert report.suppressed == 1  # the justified readline


def test_rl005_unbounded_reads_not_applied_to_transport():
    # The transport's reader loops are bounded by connection lifetime;
    # mode 5 polices only the chaos orchestration layer.
    report = findings("rl005_reads_bad.py", "RL005", relpath="net/transport.py")
    assert report.diagnostics == []


# -- inline suppression ---------------------------------------------------------


def test_noqa_suppresses_exact_rules_only():
    source = load("rl_noqa.py", "core/rl_noqa.py")
    report = lint_sources([source], rules=rules_by_id(["RL001", "RL003"]))
    assert locations(report) == [("RL001", 23)]  # the unsuppressed finding
    assert report.suppressed == 4


def test_noqa_for_other_rule_does_not_suppress():
    source = SourceFile.from_source(
        "def f(n, t):\n    return n - t  # repro: noqa-RL003\n",
        relpath="core/example.py",
    )
    report = lint_sources([source], rules=rules_by_id(["RL001"]))
    assert locations(report) == [("RL001", 2)]


# -- RL008: stale read across await (per file) -----------------------------------


def test_rl008_fires_on_each_hazard_kind():
    report = findings("rl008_bad.py", "RL008", relpath="core/rl008_bad.py")
    assert locations(report) == [
        ("RL008", 16),  # read / suspend / write-back
        ("RL008", 21),  # single-statement RMW around an await
        ("RL008", 28),  # stale value written via sync helper
        ("RL008", 35),  # alias of a container entry mutated post-await
    ]
    assert all(d.severity == "error" for d in report.diagnostics)
    messages = [d.message for d in report.diagnostics]
    assert "without re-validation" in messages[0]
    assert "_store" in messages[2]  # interprocedural: names the helper
    assert "orphaned object" in messages[3]


def test_rl008_clean_fixture_is_clean():
    report = findings("rl008_ok.py", "RL008", relpath="core/rl008_ok.py")
    assert report.diagnostics == []


def test_rl008_scope_is_core_smr_net():
    report = findings("rl008_bad.py", "RL008", relpath="apps/rl008_bad.py")
    assert report.diagnostics == []


def test_rl008_noqa_suppresses():
    text = load("rl008_bad.py", "core/rl008_bad.py").text
    text = text.replace(
        "self.count = current + 1  # RL008 here",
        "self.count = current + 1  # repro: noqa-RL008 -- test justification",
    )
    source = SourceFile.from_source(text, relpath="core/rl008_bad.py")
    report = lint_sources([source], rules=rules_by_id(["RL008"]))
    assert [line for _, line in locations(report)] == [21, 28, 35]
    assert report.suppressed == 1


def test_rl008_baseline_round_trip():
    from repro.analysis.baseline import Baseline

    source = load("rl008_bad.py", "core/rl008_bad.py")
    first = lint_sources([source], rules=rules_by_id(["RL008"]))
    baseline = Baseline.from_diagnostics(first.diagnostics, reason="known")
    second = lint_sources(
        [source], rules=rules_by_id(["RL008"]), baseline=baseline
    )
    assert second.diagnostics == []
    assert len(second.baselined) == len(first.diagnostics)
    assert second.stale_baseline == []


def test_rl008_catches_a_seeded_stale_alias_in_the_real_redial_loop():
    # The acceptance regression, on the transport's one await site left
    # (frames are handled in socket callbacks, which never suspend): a
    # redial loop that captured the peer's inbound channel before the
    # dial and mutated it after would write to an orphaned object if a
    # restarted peer replaced the channel meanwhile.  RL008 must fire on
    # that seed, and stay quiet once the write re-validates the entry.
    real = (
        Path(__file__).parent.parent.parent
        / "src" / "repro" / "net" / "transport.py"
    )
    text = real.read_text(encoding="utf-8")
    dial = "                host, port = self.net.addresses[self.peer]\n"
    connected = '                self.net.trace.bump("transport.connects")\n'
    assert text.count(dial) == 1 and text.count(connected) == 1
    capture = "                inbound = self.net._inbound.get(self.peer)\n"
    write = "inbound.acked = inbound.last_seq\n"
    revalidated = (
        "                if self.net._inbound.get(self.peer) is inbound:\n"
        "                    " + write
    )

    def alias_findings(seeded_write):
        seeded = text.replace(dial, capture + dial).replace(
            connected, connected + seeded_write
        )
        source = SourceFile.from_source(seeded, relpath="net/transport.py")
        report = lint_sources([source], rules=rules_by_id(["RL008"]))
        return [d for d in report.diagnostics if "orphaned object" in d.message]

    assert alias_findings("") == []  # the capture alone is harmless
    fired = alias_findings("                " + write)
    assert fired, "a stale alias written after the dial must be caught"
    assert "_inbound" in fired[0].message
    assert alias_findings(revalidated) == []


# Each scanner behaviour on a small module: every RL008 finding's line
# and the message fragment naming its cell, read and suspension lines.
SCANNER_CASES = [
    pytest.param(
        "import asyncio\n"
        "counter = 0\n"
        "async def bump():\n"
        "    global counter\n"
        "    v = counter\n"
        "    await asyncio.sleep(0)\n"
        "    counter = v + 1\n",
        [(7, "core/mod.py::counter read at line 5 is written back after "
             "the suspension at line 6")],
        id="global-cell-is-module-scoped",
    ),
    pytest.param(
        "import asyncio\n"
        "class C:\n"
        "    async def lost_update(self):\n"
        "        v = self.count\n"
        "        await asyncio.sleep(0)\n"
        "        self.count = v + 1\n"
        "    async def via_helper(self):\n"
        "        v = self.count\n"
        "        await asyncio.sleep(0)\n"
        "        self.put(v)\n"
        "    def put(self, value):\n"
        "        self.count = value\n"
        "    async def alias(self):\n"
        "        entry = self.table.get('k')\n"
        "        await asyncio.sleep(0)\n"
        "        entry.field = 1\n",
        [
            (6, "C.count read at line 4 is written back after the suspension at line 5"),
            (10, "C.count read at line 8 is written back via put() after the "
                 "suspension at line 9"),
            (16, "object obtained from C.table at line 14 is mutated after the "
                 "suspension at line 15"),
        ],
        id="read-suspend-write-lines-of-each-kind",
    ),
    pytest.param(
        "import asyncio\n"
        "class C:\n"
        "    async def guarded(self):\n"
        "        v = self.count\n"
        "        await asyncio.sleep(0)\n"
        "        if v != self.count:\n"
        "            return\n"
        "        self.count = v + 1\n",
        [],
        id="revalidation-clears-the-hazard",
    ),
    pytest.param(
        "import asyncio\n"
        "class C:\n"
        "    async def stale_again(self):\n"
        "        v = self.count\n"
        "        await asyncio.sleep(0)\n"
        "        if v != self.count:\n"
        "            return\n"
        "        await asyncio.sleep(0)\n"
        "        self.count = v + 1\n",
        [(9, "C.count read at line 4 is written back after the suspension at line 8")],
        id="validation-expires-at-the-next-suspension",
    ),
    pytest.param(
        "import asyncio\n"
        "class C:\n"
        "    async def pump(self):\n"
        "        v = self.count\n"
        "        while True:\n"
        "            await asyncio.sleep(0)\n"
        "            self.count = v + 1\n",
        [(7, "C.count read at line 4 is written back after the suspension at line 6")],
        id="loop-carried-staleness",
    ),
    pytest.param(
        # One branch suspends, the other does not: the merged state must
        # still treat the capture as stale (the suspension may have run).
        "import asyncio\n"
        "class C:\n"
        "    async def maybe(self, flag):\n"
        "        v = self.count\n"
        "        if flag:\n"
        "            await asyncio.sleep(0)\n"
        "        self.count = v + 1\n",
        [(7, "C.count read at line 4 is written back after the suspension at line 6")],
        id="branch-merge-keeps-the-stale-path",
    ),
    pytest.param(
        "import asyncio\n"
        "class C:\n"
        "    async def run(self):\n"
        "        v = self.slot\n"
        "        await asyncio.sleep(0)\n"
        "        self.forward(v)\n"
        "    def forward(self, item):\n"
        "        self.store(item)\n"
        "    def store(self, value):\n"
        "        self.slot = value\n",
        [(6, "C.slot read at line 4 is written back via forward() after the "
             "suspension at line 5")],
        id="helper-chain-forward-to-store",
    ),
    pytest.param(
        # A read, a suspension and a write in one coroutine fire; a sync
        # method returning a cell passes it on; a caller that never
        # suspends writes nothing stale.
        "import asyncio\n"
        "class C:\n"
        "    async def bump(self):\n"
        "        v = self.count\n"
        "        await asyncio.sleep(0)\n"
        "        self.count = v + 1\n"
        "    def peek(self):\n"
        "        return self.count\n"
        "    def touch(self):\n"
        "        v = self.peek()\n"
        "        self.count = v + 1\n"
        "    async def via_peek(self):\n"
        "        v = self.peek()\n"
        "        await asyncio.sleep(0)\n"
        "        self.count = v\n",
        [
            (6, "C.count read at line 4 is written back after the suspension at line 5"),
            (15, "C.count read at line 13 is written back after the suspension "
                 "at line 14"),
        ],
        id="direct-reads-writes-and-suspension",
    ),
    pytest.param(
        "import asyncio\n"
        "class C:\n"
        "    async def run(self):\n"
        "        v = self.indirect()\n"
        "        await asyncio.sleep(0)\n"
        "        self.count = v + 1\n"
        "    def snapshot(self):\n"
        "        return self.count\n"
        "    def indirect(self):\n"
        "        return self.snapshot()\n",
        [(6, "C.count read at line 4 is written back after the suspension at line 5")],
        id="helper-returned-cell",
    ),
    pytest.param(
        # `self.load()` calls a method: it reads no cell `C.load`, so
        # nothing stale is written back to one.
        "import asyncio\n"
        "class C:\n"
        "    async def refresh(self):\n"
        "        v = self.load()\n"
        "        await asyncio.sleep(0)\n"
        "        self.load = v\n"
        "    def load(self):\n"
        "        return 1\n",
        [],
        id="a-called-method-is-not-a-cell-read",
    ),
]


@pytest.mark.parametrize("text, expected", SCANNER_CASES)
def test_rl008_scanner_behaviour(text, expected):
    source = SourceFile.from_source(text, relpath="core/mod.py")
    report = lint_sources([source], rules=rules_by_id(["RL008"]))
    found = [(d.line, d.message) for d in report.diagnostics]
    assert [line for line, _ in found] == [line for line, _ in expected]
    for (_, message), (_, fragment) in zip(found, expected):
        assert fragment in message


def test_rl002_fires_on_a_discarded_consistency_verdict():
    report = findings("rl002_consistency_bad.py", "RL002")
    assert locations(report) == [("RL002", 5), ("RL002", 6)]
