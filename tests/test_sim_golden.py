"""Golden digests of the simulators' executions.

Each case runs one executor configuration for a fixed number of
iterations and hashes every execution's ``(rf, ws, counters, crashed)``
— plus, for fault-plane cases, the plane's opportunity and firing
totals.  The digests were recorded before the executor's hot loops were
last rewritten, so they pin the exact random-draw order of every
machine: any change to which draws happen, or in what order, changes at
least one digest.  The detailed MESI cases also pin their event and
squash counts, and a protocol-tracer digest pins the message order of
``detailed-none`` directly, so a rewrite of the simulator's event loop
must keep the same events in the same order, not only the same
executions.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

import dataclasses
import hashlib

import pytest

from repro.instrument import SignatureCodec, regularize
from repro.mcm import SC, TSO, WEAK
from repro.mutate import FaultPlane, Mutation, Trigger
from repro.sim import OperationalExecutor
from repro.sim.detailed import DetailedExecutor
from repro.sim.faults import Bug, FaultConfig
from repro.sim.os_model import OSModel
from repro.sim.tracing import ProtocolTracer
from repro.testgen import TestConfig, generate

ITERATIONS = 50
#: the stream is reseeded part-way through, as the fleet's seed blocks do
RESEED_AT = 30

_MODELS = {"sc": SC, "tso": TSO, "weak": WEAK}


def _config(isa, *, threads=4, addresses=16, words_per_line=1,
            barrier_fraction=0.05, seed=11):
    return TestConfig(isa=isa, threads=threads, ops_per_thread=40,
                      addresses=addresses,
                      words_per_line=words_per_line,
                      barrier_fraction=barrier_fraction, seed=seed)


def _plane(points, seed):
    mutation = Mutation(name="golden", title="golden fixture",
                        provenance="tests", executor="operational",
                        points=tuple(points), trigger=Trigger.prob(0.5))
    return FaultPlane(mutation, seed)


def _operational(model, *, instrumentation=None, points=(), words_per_line=1,
                 os_model=False, sync_barriers=False, uniform_random=False,
                 seed=5):
    isa = "x86" if model == "tso" else "arm"
    config = _config(isa, words_per_line=words_per_line,
                     barrier_fraction=0.0 if sync_barriers else 0.05)
    program = generate(config)
    if sync_barriers:
        program = regularize(program, 8)
    codec = SignatureCodec(program, 64 if isa == "x86" else 32) \
        if instrumentation == "signature" else None
    executor = OperationalExecutor(
        program, _MODELS[model], seed=seed, instrumentation=instrumentation,
        codec=codec, layout=config.layout,
        sync_barriers=sync_barriers, uniform_random=uniform_random,
        plane=_plane(points, seed) if points else None)
    if os_model:
        executor.os_model = OSModel(executor.rng, program.num_threads, 8)
    return executor


def _detailed(bug):
    # seven threads on a 4-line L1 with false sharing: bug 3 crashes
    # most (not all) iterations, bugs 1 and 2 shift the interleavings
    config = _config("x86", threads=7, addresses=32, words_per_line=4,
                     barrier_fraction=0.0, seed=3)
    return DetailedExecutor(generate(config), seed=5, layout=config.layout,
                            faults=FaultConfig(bug=bug, l1_lines=4))


CASES = {
    "weak-none": lambda: _operational("weak"),
    "weak-signature": lambda: _operational("weak", instrumentation="signature"),
    "weak-flush": lambda: _operational("weak", instrumentation="flush"),
    "tso-none": lambda: _operational("tso"),
    "tso-signature": lambda: _operational("tso", instrumentation="signature"),
    "tso-flush": lambda: _operational("tso", instrumentation="flush"),
    "sc-none": lambda: _operational("sc"),
    "sc-signature": lambda: _operational("sc", instrumentation="signature"),
    "sc-flush": lambda: _operational("sc", instrumentation="flush"),
    "weak-os_model": lambda: _operational("weak", os_model=True),
    "tso-os_model": lambda: _operational("tso", os_model=True),
    "sc-os_model": lambda: _operational("sc", os_model=True),
    "weak-sync_barriers": lambda: _operational("weak", sync_barriers=True),
    "tso-sync_barriers": lambda: _operational("tso", sync_barriers=True),
    "sc-sync_barriers": lambda: _operational("sc", sync_barriers=True),
    "weak-uniform_random": lambda: _operational("weak", uniform_random=True),
    "tso-uniform_random": lambda: _operational("tso", uniform_random=True),
    "sc-uniform_random": lambda: _operational("sc", uniform_random=True),
    "tso-sb_reorder": lambda: _operational(
        "tso", instrumentation="signature", points=["tso.sb_reorder"]),
    "tso-fence_drop": lambda: _operational(
        "tso", instrumentation="signature", points=["fence.drop"]),
    "weak-fence_drop": lambda: _operational(
        "weak", instrumentation="signature", points=["fence.drop"]),
    "tso-stale_read": lambda: _operational(
        "tso", instrumentation="signature", points=["mem.stale_read"]),
    "weak-stale_read": lambda: _operational(
        "weak", instrumentation="signature", points=["mem.stale_read"]),
    "sc-stale_read": lambda: _operational(
        "sc", instrumentation="signature", points=["mem.stale_read"]),
    "weak-window_escape": lambda: _operational(
        "weak", instrumentation="signature", points=["weak.window_escape"]),
    "weak-window_faults": lambda: _operational(
        "weak", points=["weak.window_escape", "fence.drop"]),
    "tso-sb_forward_alias": lambda: _operational(
        "tso", instrumentation="signature", words_per_line=4,
        points=["tso.sb_forward_alias"]),
    "tso-all_points": lambda: _operational(
        "tso", words_per_line=4,
        points=["tso.sb_reorder", "fence.drop", "mem.stale_read",
                "tso.sb_forward_alias"]),
    "detailed-none": lambda: _detailed(None),
    "detailed-bug1": lambda: _detailed(Bug.LOAD_LOAD_PROTOCOL),
    "detailed-bug2": lambda: _detailed(Bug.LOAD_LOAD_LSQ),
    "detailed-bug3": lambda: _detailed(Bug.WRITEBACK_RACE),
}


def _run_iterations(executor):
    """Yield each execution of a reseeded ``ITERATIONS`` run."""
    for i in range(ITERATIONS):
        if i == RESEED_AT:
            executor.reseed(99)
        yield executor.run_one()


def digest(executor) -> str:
    """SHA-256 over every execution of a reseeded ``ITERATIONS`` run."""
    h = hashlib.sha256()
    for e in _run_iterations(executor):
        record = (sorted(e.rf.items(), key=repr),
                  sorted((a, list(c)) for a, c in e.ws.items()),
                  dataclasses.astuple(e.counters), e.crashed)
        h.update(repr(record).encode())
    plane = getattr(executor, "plane", None)
    if plane is not None:
        h.update(repr((sorted(plane.opportunities.items()),
                       sorted(plane.fired.items()))).encode())
    return h.hexdigest()


GOLDEN = {
    'detailed-bug1': '3a05e69dbf169d5220de96fe1f1effd2be26f3ade072e41559381328bdb585f5',
    'detailed-bug2': '2df70f52d6a752c0483e1a3bf5a345839577916d18e8970fe9f65862802ad12d',
    'detailed-bug3': '15a26cf93706746b0f3fd26cd1862315e99e2aee36a7d1510c283ff6ec752a18',
    'detailed-none': '4ee55e7661365a30afbc088ef4a77d5c662178fbb8b8cbff82dea187bab16e63',
    'sc-flush': 'f116b4880b61cfeed4a690eae084d59dc9d8e80acfee572d8f087ef2b91bf4fe',
    'sc-none': 'c21fc319bd1f361f6a142bf1d9ededf176bc373dc3eefada1387a7653875d1d9',
    'sc-os_model': 'e9ac97513ab7df762a5c8f624e8c286274c2080f1b7539d196b8670c1a510d53',
    'sc-signature': '29f69075dfcda56fb3219184e55d97ba5a19960dbc5c2102528b42e8864467da',
    'sc-stale_read': '5b62ef85160203800e29153cf298b98dba487d2129726ac6a62eabbf95efde0c',
    'sc-sync_barriers': '25494f7c2ba39892ec2a454b86b4706580b2355628aaeeb31fe280bf0e05fd6d',
    'sc-uniform_random': '0f0608fe98fefe6ca9c7ccd82c6e337b8e5d8e82a98996f98d103f78dd3b1701',
    'tso-all_points': '4789ab1a8551897ee2d68ee0f6a2f7764ef9ee8e0c3b5b74ae0f9012940e0cfd',
    'tso-fence_drop': '78e3db39ce457400fadb92d4a87de2c06291daef6e6c1971750fea68b4ba436d',
    'tso-flush': 'e3b7e17c7413a0f620e2d73fe8fac72c0f1762fd87d7f5a5e9f63f880b576811',
    'tso-none': 'e93a64b4503c824e38a35f0e71edf5beecbd509c0a3256ff627cc2f52f8f96ec',
    'tso-os_model': 'e0918d474cbe5f11cfa612feb0ca113472ce7bd6de844ce97066dec29acb8d9e',
    'tso-sb_forward_alias': '340e2fa5273f149cc5e4b86d46782b302f980e414718474c546f2de817872827',
    'tso-sb_reorder': '5c27bf2233e915bfd782aff22e8ee0d449d900819dcfa8e9ca6fdaca2268f9b3',
    'tso-signature': '9f2fc7f5b88660537d98df50450ad394922f462febfe101feea786585f3dd06f',
    'tso-stale_read': 'ce1a42211446eef219ac479a56aa8e72bf1c4bec5b8d8b76ca6cee90837c90b1',
    'tso-sync_barriers': '3fa5d090e230dacb2944858af649676d594336d6e52b15e3bd3bf216a414347b',
    'tso-uniform_random': '1ddac28084cdd4c3c487d473bcda4df79578135073020b6114b6f5f4168f436d',
    'weak-fence_drop': 'ab8d902c4e3dbb8fc12b42a0a55aea6a4aeabc7130fd4fb3c95044095a842abe',
    'weak-flush': '082e8ff8a50ccdac37ef222e90245b218abb7bc344ba9d20c742245e01e5cd12',
    'weak-none': '8aa17ed9dea310ef0fb14046f5a171d6b32428621a18c2117b31485dffb2b733',
    'weak-os_model': 'b4e94ed9c2f071707be93d0cfb33b2676eb95865bd5b9c6fb0e8f6d33d9802c4',
    'weak-signature': '46a694e35386c214b3cd3e99e12e7d8ed234cd7f359c2447c1eec21be72caf2d',
    'weak-stale_read': '1e91211022093ebb2eb26d353c7b05dfac7a48cf80391c607a45e3871a76eb1c',
    'weak-sync_barriers': '459d5df0fe680ec1e880e9f5654e31f1ad1bd87be3e6d3a6351279798d20a3cf',
    'weak-uniform_random': 'e46c8f8aa643b12a15d4523ca47e474fa9e7b3835afbb225a7a903c75fe8e34e',
    'weak-window_escape': '1f8cbc5bd4eb1f89c44bb8138cece375b93d817f5740f0ca544bd0116b3dc9db',
    'weak-window_faults': '3a45684edae01218ca2f9f71632a386a4a9e614c29c4689a0985953ea74123b9',
}


#: (events processed, loads squashed) summed over each detailed case's
#: run: the event loop's own work, pinned beside the executions it makes
DETAILED_EVENT_COUNTS = {
    'detailed-bug1': (102471, 1116),
    'detailed-bug2': (94543, 247),
    'detailed-bug3': (31561, 341),
    'detailed-none': (103547, 1218),
}

#: iterations of ``detailed-none`` behind :data:`TRACE_DIGEST`
TRACE_ITERATIONS = 5


def event_counts(executor) -> tuple:
    """(events processed, loads squashed) summed over the run."""
    events = squashes = 0
    for _ in _run_iterations(executor):
        events += executor._events_processed
        squashes += executor._squashed_loads
    return events, squashes


def trace_digest() -> str:
    """SHA-256 over every protocol message and store commit that a
    :class:`ProtocolTracer` sees in ``TRACE_ITERATIONS`` iterations of
    ``detailed-none``: (time, src, dst, handler name, args) per message,
    so the message order itself is pinned, not only its outcome."""
    h = hashlib.sha256()
    tracer = ProtocolTracer(capacity=None)
    executor = CASES["detailed-none"]()
    with tracer.attach_to(executor):
        for _ in range(TRACE_ITERATIONS):
            executor.run_one()
            for event in tracer.events:
                h.update(repr((event.time, event.kind, event.detail)).encode())
            tracer.clear()
    return h.hexdigest()


TRACE_DIGEST = '06ec3095100698b94699aa266f8209365b1bf8ada8bc3384ed58d908c7064583'


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]()) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(DETAILED_EVENT_COUNTS))
def test_detailed_event_counts(case):
    assert event_counts(CASES[case]()) == DETAILED_EVENT_COUNTS[case]


def test_detailed_event_counts_cover_detailed_cases():
    assert set(DETAILED_EVENT_COUNTS) == {
        name for name in CASES if name.startswith("detailed-")}


def test_protocol_trace_digest():
    assert trace_digest() == TRACE_DIGEST


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


if __name__ == "__main__":
    for name in sorted(CASES):
        print("    %r: %r," % (name, digest(CASES[name]())))
    for name in sorted(CASES):
        if name.startswith("detailed-"):
            print("    %r: %r," % (name, event_counts(CASES[name]())))
    print("TRACE_DIGEST = %r" % trace_digest())
