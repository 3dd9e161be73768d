"""Merging shard signature multisets into one campaign result.

The host side of the paper's device/host split: every worker (device)
ships a signature multiset; the host unions them — summing per-signature
occurrence counts and keeping one representative execution per unique
signature — before the collective checker runs.  Because the checkers
consume only the sorted unique-signature set, a merged sharded campaign
is checked byte-identically to a serial one.
"""

from __future__ import annotations

from repro.harness.checking import CampaignResult
from repro.io import FormatError, dump_program


def merge_campaign_results(results) -> CampaignResult:
    """Union shard :class:`CampaignResult` multisets into one result.

    Per-signature counts are summed; the first shard (in argument order)
    to observe a signature contributes its representative execution.
    Iteration, crash and access totals are summed; cycle accounting is
    summed too, which matches per-device accounting but — like the
    paper's per-device measurements — is not bit-identical to one
    device's serial accounting.

    Raises:
        ValueError: on an empty input.
        FormatError: when shards disagree on the test program or the
            signature register width (they cannot belong to one campaign).
    """
    results = list(results)
    if not results:
        raise ValueError("nothing to merge: no campaign results given")
    first = results[0]
    identity = dump_program(first.program)
    width = first.codec.register_width
    merged = CampaignResult(first.program, first.codec)
    for result in results:
        if dump_program(result.program) != identity:
            raise FormatError(
                "cannot merge campaigns of different programs: %r vs %r"
                % (identity["name"], result.program.name))
        if result.codec.register_width != width:
            raise FormatError(
                "cannot merge campaigns of different register widths: %d vs %d"
                % (width, result.codec.register_width))
        merged.iterations += result.iterations
        merged.crashes += result.crashes
        merged.skipped_iterations += result.skipped_iterations
        merged.signature_asserts += result.signature_asserts
        merged.signature_counts.update(result.signature_counts)
        for signature, representative in result.representatives.items():
            merged.representatives.setdefault(signature, representative)
        merged.base_cycles += result.base_cycles
        merged.instrumentation_cycles += result.instrumentation_cycles
        merged.signature_sort_cycles += result.signature_sort_cycles
        merged.test_accesses += result.test_accesses
        merged.extra_accesses += result.extra_accesses
    return merged
