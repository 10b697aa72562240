"""Quickstart: de-anonymize a resting-state cohort in a few lines.

The scenario mirrors the paper's core setting: an attacker holds one
identified dataset (session 1, L-R encoding) and one anonymous dataset
(session 2, R-L encoding) of the same subjects.  The attack selects the
connectome features with the highest leverage scores in the identified
dataset and matches subjects across datasets by Pearson correlation.

The recommended way to run it is the serving API (``repro.service``):
enroll the identified cohort into a named gallery through an
:class:`~repro.service.IdentificationService` and send typed
``IdentifyRequest`` messages — sync for one-off queries, async for
concurrent load (the service micro-batches concurrent requests into one
stacked match, bit-identical to serial identifies).

Run with::

    python examples/quickstart.py
"""

import asyncio

from repro import (
    EnrollRequest,
    HCPLikeDataset,
    IdentificationService,
    IdentifyRequest,
    ServiceConfig,
)
from repro.runtime import ExperimentRunner, ExperimentSpec


def main() -> None:
    # A small synthetic HCP-like cohort (see DESIGN.md for why a generative
    # model stands in for the real Human Connectome Project release).
    dataset = HCPLikeDataset(
        n_subjects=30, n_regions=100, n_timepoints=180, random_state=42
    )

    print("Generating the identified (reference) and anonymous (target) sessions...")
    reference_scans = dataset.generate_session("REST", encoding="LR", day=1)
    target_scans = dataset.generate_session("REST", encoding="RL", day=2)

    # One config object owns every knob (features, SVD backend, matching
    # precision, batching); one service serves every gallery.
    service = IdentificationService(config=ServiceConfig(n_features=100))

    # Enroll once: the expensive part (one SVD of the reference group matrix)
    # happens here and is memoized under the `svd`/`leverage`/`gallery`
    # artifact kinds.
    enrolled = service.enroll(
        EnrollRequest(gallery="hcp-rest", scans=reference_scans, create=True)
    )
    print(f"enrolled {enrolled.enrolled} subjects into gallery {enrolled.gallery!r}")

    response = service.identify(IdentifyRequest(gallery="hcp-rest", scans=target_scans))

    print()
    print(f"identification accuracy : {100.0 * response.accuracy:.1f} %")
    print(f"subjects enrolled       : {response.n_gallery_subjects}")
    print(f"probes identified       : {response.n_probes}")

    gallery = service.registry.get("hcp-rest")
    print()
    print("Where does the signature live?  Top region pairs by leverage score:")
    for region_a, region_b in gallery.signature_region_pairs(dataset.n_regions, top=10):
        print(f"  region {region_a:3d} <-> region {region_b:3d}")

    mismatches = [
        (actual, predicted)
        for actual, predicted in zip(
            response.target_subject_ids, response.predicted_subject_ids
        )
        if actual != predicted
    ]
    print()
    if mismatches:
        print("Subjects the attack got wrong:")
        for actual_id, predicted_id in mismatches:
            print(f"  {actual_id} was matched to {predicted_id}")
    else:
        print("Every anonymous subject was re-identified correctly.")

    # Concurrent serving: each subject's anonymous scan arrives as its own
    # request; awaiting them together lets the service coalesce all of them
    # into ONE stacked match (bit-identical to serial identifies).
    async def serve_concurrently():
        requests = [
            IdentifyRequest(gallery="hcp-rest", scans=[scan]) for scan in target_scans
        ]
        return await asyncio.gather(
            *(service.identify_async(request) for request in requests)
        )

    responses = asyncio.run(serve_concurrently())
    n_correct = sum(
        r.predicted_subject_ids == r.target_subject_ids for r in responses
    )
    print()
    print(
        f"Async serving: {len(responses)} concurrent single-probe requests were "
        f"coalesced into batches of up to {max(r.batch_size for r in responses)}; "
        f"{n_correct}/{len(responses)} re-identified."
    )

    # Repeat load is served warm: probe signatures and the normalized gallery
    # are content-keyed cache hits, so nothing is rebuilt or re-fitted.
    asyncio.run(serve_concurrently())
    stats = service.stats()
    probe_stats = stats.cache_kinds.get("probe", {})
    print()
    print(
        "Second round is served warm: probe-signature cache "
        f"{probe_stats.get('hits', 0):.0f} hits / "
        f"{probe_stats.get('misses', 0):.0f} misses; "
        f"gallery re-fits so far: {gallery.refit_count_} (fitted once, reused since)."
    )
    print(
        f"Serving totals: {stats.requests} requests over {stats.batches} stacked "
        f"matches (mean batch {stats.mean_batch_size:.1f})."
    )

    # Batched experiment execution: one spec per workload, deterministic
    # seeds, shared cache, optional thread pool (max_workers>1).  Serving
    # never uses this pool; its process parallelism is the router fleet.
    runner = ExperimentRunner(max_workers=2)
    specs = [
        ExperimentSpec(
            name=f"attack-{task}",
            kind="attack",
            params={"n_subjects": 12, "n_regions": 48, "n_timepoints": 120, "task": task},
        )
        for task in ("REST", "LANGUAGE")
    ]
    print()
    print("Batched runner over REST and LANGUAGE attack specs:")
    for result in runner.run(specs):
        print(
            f"  {result.name:16s} accuracy={result.metrics['accuracy']:.2f} "
            f"total={result.total_seconds:.2f}s"
        )


if __name__ == "__main__":
    main()
