"""Trace grammar, synthetic op streams, and the driver."""

import hashlib
import io
import os
import tempfile
from dataclasses import asdict, replace
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgc import workloads
from hybridgc.address_space import MemoryKind
from hybridgc.cli import main
from hybridgc.errors import ConfigError, TraceError
from hybridgc.harness import derive_seed
from hybridgc.heap import BOOT
from hybridgc.workloads import (
    ALLOC,
    ARCHETYPES,
    READ,
    REF,
    ROOT,
    UNROOT,
    WRITE,
    WorkloadSpec,
    default_spec,
    drive,
    generate,
    load_trace,
    parse_trace,
    serialize_trace,
)

from support import KIB, MIB, entered_codes, per_key, small_heap

HANDWRITTEN = [
    (ALLOC, 1, 128, 2, False),
    (ALLOC, 2, 16 * KIB, 0, True),
    (WRITE, 1, 0, 64),
    (READ, 2, 4096, 512),
    (REF, 1, 0, 2),
    (REF, 1, 1, 0),  # clearing a slot
    (REF, -3, 0, 1),  # boot-image parent
    (ROOT, 1),
    (UNROOT, 1),
]


def serialized(ops) -> str:
    """``ops`` as ``serialize_trace`` writes them: one newline-terminated line each."""
    out = io.StringIO()
    serialize_trace(ops, out)
    return out.getvalue()


def outcome(read):
    """What ``read()`` returns, or the args and line of the TraceError it raises."""
    try:
        return read()
    except TraceError as exc:
        return ("TraceError", exc.args, exc.line)


def loaded(text: str):
    """``load_trace`` of ``text`` written to a file, checked against
    ``parse_trace`` over the file's lines: the same ops (compared by
    ``repr``, so a large flag must be the same bool), or a TraceError
    with the same args and line, which is returned as ``outcome`` gives it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ops.trace")
        with open(path, "w", encoding="utf-8", newline="") as fh:  # "\r" is written as given
            fh.write(text)
        with open(path, encoding="utf-8") as fh:
            expected = outcome(lambda: list(parse_trace(fh)))
        got = outcome(lambda: load_trace(path))
    assert repr(got) == repr(expected)
    return got


class TestGrammar:
    def test_round_trip_identity(self):
        text = serialized(HANDWRITTEN)
        assert list(parse_trace(text.splitlines())) == HANDWRITTEN
        assert loaded(text) == HANDWRITTEN

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "ops.trace"
        with open(path, "w") as fh:
            assert serialize_trace(HANDWRITTEN, fh) == len(HANDWRITTEN)
        assert load_trace(str(path)) == HANDWRITTEN

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# header\n\n   \nA 1 64 0 0\n  # indented comment\nG 1\n"
        assert list(parse_trace(text.splitlines())) == [(ALLOC, 1, 64, 0, False), (ROOT, 1)]
        assert loaded(text) == [(ALLOC, 1, 64, 0, False), (ROOT, 1)]

    # The lines that may precede a bad one: a comment, a tab-indented
    # comment and a whitespace-only line.
    PREAMBLE = ["# preamble", "\t# indented", " \t "]
    # The message of each bad line, one of six classes: non-integer
    # field, wrong field count, unknown op kind, non-positive id, a large
    # flag other than 0 or 1, and an integer that int() reads but that is
    # not spelled canonically (the last two would not serialize back).
    MESSAGES = {
        "X 1 2": "unknown op kind 'X'",
        "X 1 two": "non-integer field in 'X 1 two'",
        "A 1 sixty 0 0": "non-integer field in 'A 1 sixty 0 0'",
        "W 1 2": "wrong field count in 'W 1 2'",
        "  W 1 2\t": "wrong field count in 'W 1 2'",
        "G": "wrong field count in 'G'",
        "U 1 2": "wrong field count in 'U 1 2'",
        "A 1 64 0 0 9": "wrong field count in 'A 1 64 0 0 9'",
        "A 0 64 0 0": "allocation id 0 must be positive",
        "A -5 64 0 0": "allocation id -5 must be positive",
        "A 1 64 0 2": "large flag 2 must be 0 or 1",
        "A 1 64 0 -1": "large flag -1 must be 0 or 1",
        "A 1 1_000 0 0": "non-canonical field in 'A 1 1_000 0 0'",
        "W +1 0 8": "non-canonical field in 'W +1 0 8'",
        "W 1 007 8": "non-canonical field in 'W 1 007 8'",
        "G -0": "non-canonical field in 'G -0'",
        "G \u0661": "non-canonical field in 'G \u0661'",  # an Arabic-Indic one
    }

    @pytest.mark.parametrize(
        "bad,lineno",
        [
            ("X 1 2", 2),
            ("A 1 sixty 0 0", 2),
            ("W 1 2", 2),
            ("A 1 64 0 0 9", 2),
            ("A 0 64 0 0", 2),
            ("A -5 64 0 0", 2),
            ("A 1 64 0 2", 2),
            ("X 1 two", 3),
            ("A 1 64 0 -1", 3),
            ("A 1 1_000 0 0", 2),
            ("W +1 0 8", 2),
            ("W 1 007 8", 3),
            ("G -0", 4),
            ("G \u0661", 4),
            ("  W 1 2\t", 4),
            ("G", 4),
            ("U 1 2", 4),
        ],
    )
    def test_bad_lines_report_their_position(self, bad, lineno):
        with pytest.raises(TraceError) as err:
            list(parse_trace(self.PREAMBLE[: lineno - 1] + [bad]))
        assert err.value.line == lineno
        assert err.value.args == (self.MESSAGES[bad],)
        text = "\n".join(self.PREAMBLE[: lineno - 1] + [bad]) + "\n"
        assert loaded(text) == ("TraceError", (self.MESSAGES[bad],), lineno)

    @pytest.mark.parametrize("bad", sorted(MESSAGES))
    def test_a_bad_line_after_a_canonical_one_fails_at_its_position(self, bad):
        # no preamble, so the bulk check of load_trace sees the bad line
        assert loaded("G 1\n" + bad + "\n") == ("TraceError", (self.MESSAGES[bad],), 2)

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just(ALLOC),
                    st.integers(1, 10**6),
                    st.integers(16, 64 * KIB),
                    st.integers(0, 32),
                    st.booleans(),
                ),
                st.tuples(
                    st.just(WRITE),
                    st.integers(-64, 10**6).filter(bool),
                    st.integers(0, 1 << 20),
                    st.integers(0, 4 * KIB),
                ),
                st.tuples(
                    st.just(READ),
                    st.integers(-64, 10**6).filter(bool),
                    st.integers(0, 1 << 20),
                    st.integers(0, 4 * KIB),
                ),
                st.tuples(
                    st.just(REF),
                    st.integers(-64, 10**6).filter(bool),
                    st.integers(0, 64),
                    st.integers(0, 10**6),
                ),
                st.tuples(st.just(ROOT), st.integers(1, 10**6)),
                st.tuples(st.just(UNROOT), st.integers(1, 10**6)),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_any_op_list_survives_a_round_trip(self, ops):
        buf = io.StringIO()
        serialize_trace(ops, buf)
        assert list(parse_trace(buf.getvalue().splitlines())) == ops
        assert loaded(buf.getvalue()) == ops

    @given(
        st.sampled_from("AWRPGU"),
        st.lists(
            st.one_of(
                st.integers(-300, 300).map(str),
                st.sampled_from(["007", "00", "-0", "-01", "+1", "1_0", "\u0661", "\uff11"]),
            ),
            max_size=5,
        ),
        st.lists(st.sampled_from([" ", "\t", "  ", " \t"]), min_size=5, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_parsed_line_serializes_back_up_to_whitespace(self, kind, fields, seps):
        raw = kind + "".join(sep + field for sep, field in zip(seps, fields)) + seps[0]
        loaded(raw + "\n")
        loaded(" ".join([kind, *fields]) + "\n")  # single spaces, as a serialized line
        try:
            ops = list(parse_trace([raw]))
        except TraceError:
            return
        assert serialized(ops) == " ".join([kind, *fields]) + "\n"

    # A canonical trace longer than one bulk block of ``load_trace``.
    LONG = list(generate(default_spec("nursery-churn", op_count=12_000, seed=3)))

    @pytest.mark.parametrize(
        "text,expected",
        [
            # only "\n" ends a line: str.splitlines would also cut at these
            ("A 1 64 0 0\x0bG 1\n", ("TraceError", ("non-integer field in " + repr("A 1 64 0 0\x0bG 1"),), 1)),
            ("A 1 64 0 0\x0cG 1\n", ("TraceError", ("non-integer field in " + repr("A 1 64 0 0\x0cG 1"),), 1)),
            ("G 1\nA 1 64 0 0\x1cG 1\n", ("TraceError", ("non-integer field in " + repr("A 1 64 0 0\x1cG 1"),), 2)),
            # universal newlines, as text-mode reading gives
            (serialized(HANDWRITTEN).replace("\n", "\r\n"), HANDWRITTEN),
            (serialized(HANDWRITTEN).replace("\n", "\r"), HANDWRITTEN),
            (serialized(HANDWRITTEN).removesuffix("\n"), HANDWRITTEN),
            ("", []),
            # canonical, but longer than int() converts (4,300 digits)
            ("G 1\nG " + "1" * 5_000 + "\n", ("TraceError", ("non-integer field in 'G " + "1" * 5_000 + "'",), 2)),
            (serialized(HANDWRITTEN) + "# trailing comment\n", HANDWRITTEN),
            (serialized(LONG), LONG),
            (serialized(LONG) + "X 1\n", ("TraceError", ("unknown op kind 'X'",), len(LONG) + 1)),
            (serialized(LONG) + "# trailing comment\n", LONG),
            # bulk blocks, then the rest line by line from a later block
            (serialized(LONG[:9000]) + "# mid\n" + serialized(LONG[9000:]), LONG),
            (serialized(LONG[:9000]) + "G  1\n" + serialized(LONG[9000:]) + "U 0x1\n",
             ("TraceError", ("non-integer field in 'U 0x1'",), len(LONG) + 2)),
        ],
        ids=[
            "vertical-tab", "form-feed", "file-separator", "crlf", "cr", "no-final-newline", "empty",
            "5000-digits", "final-comment", "many-blocks", "many-blocks-then-bad-line",
            "many-blocks-then-comment", "comment-in-a-later-block", "bad-line-after-a-later-block",
        ],
    )
    def test_load_trace_reads_what_parse_trace_reads(self, text, expected):
        assert loaded(text) == expected

    @pytest.mark.parametrize(
        "op",
        ["W 1 0 8", (7, 1, 0, 8), (0,), (WRITE, 1, 0), (ALLOC, 1, 64, 0, False, 9), (ROOT,), ()],
        ids=["text-line", "code-7", "code-0", "short-write", "long-alloc", "bare-root", "empty"],
    )
    def test_a_malformed_op_is_not_serialized(self, op):
        out = io.StringIO()
        with pytest.raises(TraceError, match=r"^cannot serialize "):
            serialize_trace([(ROOT, 1), op, (ROOT, 2)], out)
        assert out.getvalue() == "G 1\n"

    def test_load_trace_rejects_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"A 1 64 0 0\r\nG 1\rW 1 0 8\nG \xff\n")
        with pytest.raises(TraceError) as err:
            load_trace(str(path))
        assert err.value.line == 4
        assert "UTF-8" in err.value.args[0]

    @pytest.mark.parametrize("archetype", ARCHETYPES)
    def test_gen_trace_output_loads_without_the_line_parser(self, tmp_path, monkeypatch, archetype):
        """``gen-trace`` text takes the bulk path: a change to the serializer
        that sent it line by line would lose the bulk load's speed unseen."""
        path = tmp_path / "g.trace"
        assert main(["gen-trace", "--archetype", archetype, "--seed", "5", "--ops", "9000", "--out", str(path)]) == 0
        assert path.stat().st_size > workloads._BLOCK_CHARS  # more than one block

        def refuse(_lines):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(workloads, "parse_trace", refuse)
        assert load_trace(str(path)) == list(generate(default_spec(archetype, op_count=9000, seed=5)))


class TestSpecs:
    def test_unknown_archetype_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(archetype="steady-state", op_count=10)
        with pytest.raises(ConfigError):
            default_spec("steady-state")

    def test_op_count_must_be_positive(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(archetype="nursery-churn", op_count=0)

    @pytest.mark.parametrize("name", ["survival", "locality", "large_fraction"])
    def test_fractions_lie_in_the_unit_interval(self, name):
        for value in (0.0, 1.0):
            WorkloadSpec("nursery-churn", 10, **{name: value})
        for value in (-0.1, 1.5, float("nan")):
            with pytest.raises(ConfigError, match=name):
                WorkloadSpec("nursery-churn", 10, **{name: value})

    def test_small_sizes_must_form_a_positive_range(self):
        WorkloadSpec("nursery-churn", 10, size_min=64, size_max=64)
        for lo, hi in ((0, 64), (-16, 64), (128, 64)):
            with pytest.raises(ConfigError, match="size_min"):
                WorkloadSpec("nursery-churn", 10, size_min=lo, size_max=hi)

    def test_large_sizes_must_form_a_positive_range(self):
        WorkloadSpec("large-object-graph", 10, large_min=8 * KIB, large_max=8 * KIB)
        # a zero minimum used to fail inside the generator, dividing by zero
        for lo, hi in ((0, 64 * KIB), (64 * KIB, 8 * KIB)):
            with pytest.raises(ConfigError, match="large_min"):
                WorkloadSpec("large-object-graph", 50, large_min=lo, large_max=hi, large_fraction=1.0)

    def test_size_spread_must_not_be_negative(self):
        WorkloadSpec("nursery-churn", 10, size_log_sigma=0.0)
        for sigma in (-0.5, float("nan")):
            with pytest.raises(ConfigError, match="size_log_sigma"):
                WorkloadSpec("nursery-churn", 10, size_log_sigma=sigma)

    def test_resident_set_must_not_be_negative(self):
        WorkloadSpec("mature-mutation", 10, resident_bytes=0)
        with pytest.raises(ConfigError, match="resident_bytes"):
            WorkloadSpec("mature-mutation", 10, resident_bytes=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("op_count", 2.5),
            ("seed", 1.5),
            ("size_max", float("inf")),
            ("large_max", float("inf")),
            ("resident_bytes", float("nan")),
            ("size_log_mean", float("nan")),
            ("size_log_mean", float("inf")),
            ("size_log_sigma", float("inf")),
            ("large_fraction", True),
        ],
    )
    def test_every_field_holds_its_declared_type(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must be (an int|a finite number), not "):
            WorkloadSpec(**{"archetype": "mature-mutation", "op_count": 10, field: value})

    def test_dict_round_trip_and_reseeding(self):
        spec = default_spec("large-object-graph", op_count=500, seed=3)
        assert WorkloadSpec(**asdict(spec)) == spec
        reseeded = replace(spec, seed=9)
        assert reseeded.seed == 9
        assert reseeded.large_fraction == spec.large_fraction


class TestGenerators:
    @pytest.mark.parametrize(
        "archetype,count",
        [("nursery-churn", 3000), ("mature-mutation", 3000), ("large-object-graph", 2000)],
    )
    def test_streams_are_deterministic_and_exact(self, archetype, count):
        spec = default_spec(archetype, op_count=count, seed=42)
        first = list(generate(spec))
        second = list(generate(spec))
        assert first == second
        assert len(first) == count
        assert first != list(generate(replace(spec, seed=43)))

    @given(
        st.sampled_from(["nursery-churn", "mature-mutation", "large-object-graph"]),
        st.integers(1, 2000),
        st.integers(0, 2**63 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_op_count_for_any_seed(self, archetype, count, seed):
        # the budget can expire mid-pattern; the stream must still be exact
        spec = default_spec(archetype, op_count=count, seed=seed)
        assert sum(1 for _ in generate(spec)) == count

    def test_churn_objects_are_unrooted_shortly_after_birth(self):
        spec = default_spec("nursery-churn", op_count=40_000, seed=2)
        born_at: dict[int, int] = {}
        died: dict[int, int] = {}
        allocs = 0
        for op in generate(spec):
            if op[0] == ALLOC:
                allocs += 1
                born_at[op[1]] = allocs
            elif op[0] == UNROOT:
                died[op[1]] = allocs
        # ids born early enough that a scheduled death fits in the trace
        early = {oid for oid, born in born_at.items() if born <= allocs // 2}
        early_deaths = [died[oid] - born_at[oid] for oid in early if oid in died]
        assert len(early_deaths) >= 0.85 * len(early)
        assert max(early_deaths) <= 3000

    def test_churn_objects_mostly_die_before_promotion(self):
        # at the archetype's design scale a nursery outlives nearly all of
        # its occupants, so minors copy only the retained slice
        spec = default_spec("nursery-churn", seed=2)
        heap, _ = small_heap(
            "KG-N", nursery=4 * MIB, budget=64 * MIB, heap_size=256 * MIB, chunk_size=MIB
        )
        fills = []  # the nursery's fill as each minor starts

        def inspect(kind, _live):
            if kind == "minor":
                fills.append(heap.nursery.cursor - heap.nursery.lo)

        heap.gc.inspect_hook = inspect
        drive(heap, generate(spec))
        minors = [s for s in heap.gc.collections if s.kind == "minor"]
        assert len(minors) == len(fills) >= 1
        survival = sum(s.bytes_copied_total for s in minors) / sum(fills)
        assert survival < 0.15

    def test_mature_mutation_writes_mostly_hit_old_objects(self):
        spec = default_spec("mature-mutation", seed=7)
        ops = list(generate(spec))
        birth: dict[int, int] = {}
        cursor = 0
        old_bytes = 0
        total_bytes = 0
        for index, op in enumerate(ops):
            if op[0] == ALLOC:
                _, oid, size, _, _ = op
                birth[oid] = cursor
                cursor += size
            elif op[0] == WRITE and index >= len(ops) // 2:
                # steady state: the long-lived set is in place by mid-trace
                _, oid, _, length = op
                total_bytes += length
                if cursor - birth[oid] >= 4 * MIB:
                    old_bytes += length
        assert total_bytes > 0
        assert old_bytes > 0.5 * total_bytes

    def test_large_object_graph_allocates_large_and_links(self):
        spec = default_spec("large-object-graph", op_count=8000, seed=5)
        ops = list(generate(spec))
        allocs = [op for op in ops if op[0] == ALLOC]  # (ALLOC, id, size, n_refs, large)
        alloc_bytes = sum(op[2] for op in allocs)
        large_bytes = sum(op[2] for op in allocs if op[4])
        assert large_bytes >= 0.25 * alloc_bytes
        assert any(not op[4] for op in allocs)
        assert any(op[0] == REF for op in ops)


def stream_sha256(archetype: str, count: int, seed: int, **fields) -> str:
    """SHA-256 of the stream of the archetype's spec with ``fields`` replaced."""
    spec = replace(default_spec(archetype, op_count=count, seed=seed), **fields)
    # the pins hash the lines joined by newlines, with no newline after the last
    text = serialized(generate(spec)).removesuffix("\n")
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of each archetype's serialized stream at seed 7, 5,000 ops,
# recorded from the first generators, which drew through helper
# functions, rng.choices and rng.lognormvariate. Any change to what the
# generators draw, or in which order, moves these.
STREAM_SHA256 = {
    "nursery-churn": "a00f4d16293e3b39857948fc5795ed96ed759af31b75455ebba6076646950928",
    "mature-mutation": "148c7975bf817bd1aff82e3ce0912107a7e23500fcef661311095aa274689737",
    "large-object-graph": "3ab271cb03cb480ef672719da4dfcde76b166869d6638b927a778c2212afe7ca",
}


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_generated_streams_are_pinned(archetype):
    assert stream_sha256(archetype, 5_000, 7) == STREAM_SHA256[archetype]


# The same digests at the benchmark's op counts and at its two seeds, and
# at 1, 2 and 3 ops (seed 42), where the count ends the stream inside an
# allocation's ALLOC/ROOT pair or just after it. Recorded from the
# generators that buffered each loop turn's ops and dropped those past
# the count.
BENCH_STREAM_SHA256 = {
    ("nursery-churn", 100_000, 42): "7f941a5f504061e7f23de733f1032d926af667d7b9249e26c2b26bfac8235cbd",
    ("nursery-churn", 100_000, 20180800): "6e0979eda32169aac3fa9cb29921217672601c829e3eb4264eaa3f2ab3e1f9cb",
    ("nursery-churn", 1, 42): "e43f56ece38b6d3e474f93ecc6fc4480f0625fc23fa520399671783437380941",
    ("nursery-churn", 2, 42): "37d864dc79e7ae77a0211acf2b3bc2bfc9686eb9f355b176c355fbb322649c94",
    ("nursery-churn", 3, 42): "0347020c0e7e2d990b2245d736ce02de1c2e897d54f281b8773cdb072fcf849c",
    ("mature-mutation", 120_000, 42): "9f9fd75546ec10dd2a37af04ad038ee14758748796379d9d4930767427f985b8",
    ("mature-mutation", 120_000, 20180800): "9141a1691802fc0ee10c9b112845c19cfa5cc958d755c3b07ebc9ddb0dba7cd4",
    ("mature-mutation", 1, 42): "1c67a35e047ed5e6bccc241e2700db6a31c9d956d492697a3c22123773256a19",
    ("mature-mutation", 2, 42): "b95fc668dc04ef0f126652adb054057ddd9a1a9c3500fcc1be73641e94736a72",
    ("mature-mutation", 3, 42): "3c41ac71319b56e4e5cd9c4caf3a7f98ebe3687ee955174293ac3a9448235981",
    ("large-object-graph", 16_000, 42): "251cdf19285c07081e77faa2cab7670e6c2628d04cbcba690a01139906380197",
    ("large-object-graph", 16_000, 20180800): "cf07756250e7347c30a519cce297adb8a0630504ab83cb94fc6af8ca001554e4",
    ("large-object-graph", 1, 42): "e8cec157853d98a38612c880e27b7441fd8a5d77f0edc4122e377b23477fc7b4",
    ("large-object-graph", 2, 42): "7da8e014ca2b71800508b3ccbdcf1651c5bedda482e4556f9925d665a7e3be73",
    ("large-object-graph", 3, 42): "ac7de988dc26302954d8cc2440ae3a02bb57fbbd1433617030c0e0c153f48ec1",
}


@pytest.mark.parametrize("archetype,count,seed", sorted(BENCH_STREAM_SHA256))
def test_benchmark_scale_streams_are_pinned(archetype, count, seed):
    assert stream_sha256(archetype, count, seed) == BENCH_STREAM_SHA256[archetype, count, seed]


# The same digests for the benchmark's other pooled large-object-graph
# inputs: input k of seed s is generated at the master seed
# derive_seed(s, k). Recorded from the generators that drew through
# rng.choice, rng.randrange and rng.normalvariate.
POOLED_STREAM_SHA256 = {
    (42, 1): "a55f2e19e66280b34ac0d781ed94652e7798acf4da7d090c574ce78ff771a8b1",
    (42, 2): "acee09337df07badfa87c80417a76a5ad702c648aabff945dae4fe563b2364e4",
    (42, 3): "0dd953030edd1c04f334c8c811c6c7a919cfb70d1f36f1df1448e02a219f111e",
    (20180800, 1): "43ef37eef4836d67361d0fe6d833282b5f0bf9d550b4401884579b960f6637c9",
    (20180800, 2): "900cdec1f7731b1f3b6f6da991ba3f6f5f3b675a25e8889b4dddc38ae779e562",
    (20180800, 3): "214ded538e93b127331fca57c93acb8f467e9ff46384ef97beb67060a0306493",
}


@pytest.mark.parametrize("seed,k", sorted(POOLED_STREAM_SHA256))
def test_pooled_benchmark_inputs_are_pinned(seed, k):
    digest = stream_sha256("large-object-graph", 16_000, derive_seed(seed, k))
    assert digest == POOLED_STREAM_SHA256[seed, k]


# The streams the generated benchmark inputs run: the harness generates
# instance 0 at derive_seed(master, 0), where the master seed of input k of
# seed s is s itself for k = 0 and derive_seed(s, k) otherwise. Recorded
# from the generators that write each op as a plain tuple.
RUN_STREAM_SHA256 = {
    ("mature-mutation", 120_000, 42, 0): "b47e3996e1f26ec683e5c57f9c5d7aaf5c63aa6d246dd71085187779a929c26d",
    ("mature-mutation", 120_000, 20180800, 0): "061c55b347936613a68bbd50eacf4d40c5dd238a58900acdb72d1d3ec9d02fcd",
    ("large-object-graph", 16_000, 42, 0): "fb5f7af2297c849f824f579b915e4ecf0d429edceee91cf1fb983086fd8446dd",
    ("large-object-graph", 16_000, 42, 1): "80c60ad2e0f5b8e80099ea046774b70af7437e47fc67fd5aa3ab40f0b63531bb",
    ("large-object-graph", 16_000, 42, 2): "07d5f9e728438ecf81d14e76cdaae93415f653ca63495b5d07481800be2088c2",
    ("large-object-graph", 16_000, 42, 3): "226cdc3fe5b4d240d035c522161b5476a7696097fcfe9a73bc461cb505cdbbb4",
    ("large-object-graph", 16_000, 20180800, 0): "3e4cc20c3c9b6455a2d4220bd3a3876727ef7130017f2993b35deea42d7c9af6",
    ("large-object-graph", 16_000, 20180800, 1): "82da2fda86a4f7cdfa5882098eb8bd33e101a7021e3f712e0dae0f24fb495bfe",
    ("large-object-graph", 16_000, 20180800, 2): "b7d2d82810247b0df2b15016218ed9cec19332646307dae7229d6abe9a6f4b02",
    ("large-object-graph", 16_000, 20180800, 3): "ba37f873ce99329b91327855302c22ad25ccd059089df48e348ac8c1ea5b1531",
}


@pytest.mark.parametrize("archetype,count,seed,k", sorted(RUN_STREAM_SHA256))
def test_benchmark_inputs_run_pinned_streams(archetype, count, seed, k):
    master = seed if k == 0 else derive_seed(seed, k)
    digest = stream_sha256(archetype, count, derive_seed(master, 0))
    assert digest == RUN_STREAM_SHA256[archetype, count, seed, k]


# The same digests at seed 7, 5,000 ops, under a spec whose survival,
# locality, large fraction and resident set send the generators down the
# branches their defaults rarely take. Recorded alongside the pooled pins.
SKEWED = {"survival": 0.5, "locality": 0.2, "large_fraction": 0.6, "resident_bytes": 64 * KIB}
SKEWED_STREAM_SHA256 = {
    "nursery-churn": "c27ec26ef3d025762d741d2d004eb250ac6e7ceb12186fd9580acddd76ab30b5",
    "mature-mutation": "1ba668c79388eb2dc78dbb42c998562d6fd6b15c599668c13a7e84d80525e3bb",
    "large-object-graph": "9a106e7d5d75a559b7fccd4f51bfe9d18654b0bde1e42a98b44791a2f41f8418",
}


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_skewed_spec_streams_are_pinned(archetype):
    assert stream_sha256(archetype, 5_000, 7, **SKEWED) == SKEWED_STREAM_SHA256[archetype]


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_each_generated_op_runs_in_its_frame_budget(archetype):
    """A step of a stream enters only its generator's frame, from any
    module: no ``__init__`` of an op object, no ``random.Random`` method
    and no helper. The first step, which also seeds the generator's
    ``random.Random``, is taken before the count starts."""
    generator = "_gen_" + archetype.replace("-", "_")
    # a small resident set, so that mature-mutation's first unroots come
    # before op 150,000 (the other archetypes build no resident set)
    stream = generate(replace(default_spec(archetype, op_count=160_000, seed=7), resident_bytes=64 * KIB))
    next(stream)
    kinds = set()
    for skip in (0, 150_000 - 2_001):
        for _ in islice(stream, skip):
            pass
        for _ in range(2_000):
            op, entered = entered_codes(next, stream)
            assert [code.co_qualname for code in entered] == [generator]
            kinds.add(op[0])
    assert kinds == {ALLOC, WRITE, READ, REF, ROOT, UNROOT}


def test_a_bulk_load_enters_frames_per_block_not_per_op(tmp_path):
    """Loading ``gen-trace`` output enters a few Python frames for each
    64 KiB block and none for each op: twice the ops add at most four
    frames per added block, where an ``__init__`` per op would add one
    per op."""
    frames, blocks = [], []
    for count in (12_000, 24_000):
        path = tmp_path / f"{count}.trace"
        argv = ["gen-trace", "--archetype", "nursery-churn", "--seed", "5", "--ops", str(count), "--out", str(path)]
        assert main(argv) == 0
        ops, entered = entered_codes(load_trace, str(path))
        assert len(ops) == count
        frames.append(len(entered))
        blocks.append(-(-path.stat().st_size // workloads._BLOCK_CHARS))
    assert blocks[1] > blocks[0]
    assert frames[1] - frames[0] <= 4 * (blocks[1] - blocks[0])


class TestDriver:
    def test_limit_slices_the_stream(self):
        heap, _ = small_heap("KG-N", zeroing=False)
        ops = iter([(ALLOC, 1, 64, 0, False), (ROOT, 1)])
        assert drive(heap, ops, limit=1) is False and heap.op_index == 1
        assert drive(heap, ops, limit=1) is False and heap.op_index == 2
        assert drive(heap, ops, limit=1) is True and heap.op_index == 2

    def test_no_limit_runs_to_exhaustion(self):
        heap, _ = small_heap("KG-N", zeroing=False)
        ops = [(ALLOC, i, 64, 0, False) for i in (1, 2, 3)]
        assert drive(heap, iter(ops)) is True
        assert heap.op_index == 3

    def test_collections_happen_mid_drive(self):
        heap, _ = small_heap("KG-N", nursery=8 * KIB, budget=1 * MIB, zeroing=False)
        ops = []
        for oid in (1, 2, 3):
            ops.append((ALLOC, oid, 4 * KIB, 0, False))
            ops.append((ROOT, oid))
        assert drive(heap, iter(ops)) is True and heap.op_index == 6
        assert [s.kind for s in heap.gc.collections] == ["minor"]
        assert heap.objects[3].space.name == "nursery"

    @pytest.mark.parametrize("op", ["W 1 0 8", (7, 1, 0, 8), (0,)], ids=["text-line", "code-7", "code-0"])
    def test_unknown_op_is_rejected_at_its_position(self, op):
        heap, _ = small_heap("KG-N", zeroing=False)
        with pytest.raises(TraceError, match="cannot apply") as err:
            drive(heap, iter([(ALLOC, 1, 64, 0, False), op]))
        assert err.value.op_index == 1
        assert heap.op_index == 1

    def test_errors_carry_the_op_position(self):
        heap, _ = small_heap("KG-N", zeroing=False)
        ops = iter([(ALLOC, 1, 64, 0, False), (WRITE, 99, 0, 8)])
        with pytest.raises(TraceError) as err:
            drive(heap, ops)
        assert err.value.op_index == 1

    def test_the_last_boot_id_resolves_to_the_end_of_the_image(self):
        heap, system = small_heap("KG-N", boot_size=16 * KIB, boot_object_size=256, cache_capacity=0)
        count = heap.boot_space.capacity // 256
        assert len(heap.boot_ids) == count == 64
        ops = [(ALLOC, 1, 64, 0, False), (REF, -count, 3, 1), (WRITE, -count, 0, 8), (ROOT, -count)]
        assert drive(heap, iter(ops)) is True and heap.op_index == 4
        rec = heap.objects[-count]
        assert rec.addr == heap.boot_space.lo + (count - 1) * 256
        assert rec.space.name == BOOT and rec.refs == [0, 0, 0, 1]
        # one barrier line and the data write, both in the boot space
        assert per_key(system.counters.written, heap)[(0, MemoryKind.DRAM, BOOT)] == 64 + 8

    def test_an_id_past_the_boot_image_is_rejected_at_its_position(self):
        count = 64  # a 16 KiB image of 256-byte boot objects
        for op in ((WRITE, -(count + 1), 0, 8), (REF, 1, 0, -(count + 1)), (ROOT, -(count + 1))):
            heap, _ = small_heap("KG-N", boot_size=16 * KIB, boot_object_size=256, zeroing=False)
            with pytest.raises(TraceError, match=str(-(count + 1))) as err:
                drive(heap, iter([(ALLOC, 1, 64, 1, False), op]))
            assert err.value.op_index == 1
            assert -(count + 1) not in heap.objects
