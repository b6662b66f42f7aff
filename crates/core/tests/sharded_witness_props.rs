//! The sharded witness map must be invisible in the answers and
//! fail-closed everywhere else.
//!
//! The v2 sharded witness layout — records padded to the 8-byte grid,
//! a per-edge offset index (tag 6), and a page-granular `witnesses_for`
//! that touches only the queried edge's bytes — is the layout every
//! artifact is held in. These tests pin the contracts that make it
//! trustworthy:
//!
//! * **round-trip** — across random graphs, both fault models, and
//!   budgets `f ∈ {0, 1, 2}`, the owned decode and the zero-copy open
//!   of a sharded artifact answer `witnesses_for(e)` bit-identically to
//!   the construction for every edge, re-encode canonically, and the
//!   older monolithic layout imports to the same bytes;
//! * **hostile input** — every truncation and every bit flip of a
//!   sharded artifact is a typed error, never a panic, and directed
//!   probes on the offset index (out-of-range, non-monotone,
//!   misaligned, count skew, flag/section mismatches, dirty padding)
//!   land on the `artifact/witness-index` code;
//! * **page granularity** — the instrumented bytes-touched counter
//!   proves a single sharded lookup reads two index entries plus one
//!   record, while forcing the full map pays both witness sections;
//! * **no panic on an opened artifact** — a corrupt record found only
//!   after a lazy open surfaces as a typed error from every accessor
//!   that reads it, and never from those that do not.

mod common;

use proptest::prelude::*;
use spanner_core::frozen::{
    ArtifactError, FLAG_WITNESSES_DETACHED, FLAG_WITNESSES_SHARDED, SECTION_WITNESSES,
    SECTION_WITNESS_INDEX,
};
use spanner_core::{FrozenSpanner, FtGreedy, Spanner};
use spanner_faults::{FaultModel, FaultSet};
use spanner_graph::io::binary::fnv1a64_words;
use spanner_graph::{EdgeId, Graph, NodeId, SharedBytes, Weight};

fn arb_graph(max_n: usize, max_w: u64) -> impl Strategy<Value = Graph> {
    (5..=max_n).prop_flat_map(move |n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let m = pairs.len();
        (
            proptest::collection::vec(0..10u32, m),
            proptest::collection::vec(1..=max_w, m),
        )
            .prop_map(move |(keep, ws)| {
                let mut g = Graph::new(n);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    if keep[i] < 7 {
                        g.add_edge_unchecked(
                            NodeId::new(u),
                            NodeId::new(v),
                            Weight::new(ws[i]).unwrap(),
                        );
                    }
                }
                g
            })
    })
}

/// Finds `(offset, len)` of a section in a v2 container by walking the
/// section table directly (header: magic 8, version 4, flags 4,
/// count 8, then 24-byte entries).
fn section_range(bytes: &[u8], tag: u32) -> (usize, usize) {
    let count = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    for i in 0..count {
        let e = 24 + 24 * i;
        if u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap()) == tag {
            let off = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap()) as usize;
            return (off, len);
        }
    }
    panic!("section {tag} not found");
}

/// Recomputes the trailing word-wise checksum after hostile surgery, so
/// the corruption reaches the section parsers instead of stopping at
/// `artifact/bit-flip`.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv1a64_words(&bytes[..body]).to_le_bytes();
    bytes[body..].copy_from_slice(&sum);
}

/// A deterministic sharded artifact rich enough to probe: full
/// metadata, parent graph, nonempty witness sets.
fn sharded_fixture() -> (FrozenSpanner, Vec<u8>) {
    let g = spanner_graph::generators::complete(7);
    let frozen = FtGreedy::new(&g, 3).faults(1).run().freeze(&g);
    let bytes = frozen.to_v2_sharded().encode();
    (frozen, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sharded_round_trip_is_bit_identical_and_canonical(
        g in arb_graph(9, 4),
        f in 0usize..3,
        edge_model in any::<bool>(),
    ) {
        let model = if edge_model { FaultModel::Edge } else { FaultModel::Vertex };
        let frozen = FtGreedy::new(&g, 3).faults(f).model(model).run().freeze(&g);
        let expected = frozen.witnesses().unwrap().to_vec();
        let sharded = frozen.to_v2_sharded().encode();
        prop_assert_eq!(&sharded, &frozen.encode(), "a freeze is held sharded");
        let mono = common::monolithic_v2(&frozen);
        prop_assert_ne!(&mono, &sharded, "the layouts must be distinguishable");

        // Owned decode: full eager validation, canonical re-encode.
        let owned = FrozenSpanner::decode(&sharded).expect("sharded v2 must decode");
        prop_assert_eq!(owned.encode(), sharded.clone(), "re-encoding must be byte-identical");
        prop_assert_eq!(owned.witnesses().unwrap(), expected.as_slice());

        // Zero-copy open: per-edge lookups answer exactly the
        // construction's witness sets, on both paths, for every edge.
        let shared = SharedBytes::copy_aligned(&sharded);
        let mapped = FrozenSpanner::open(shared.clone()).expect("sharded v2 must open in place");
        let buf = shared.as_slice().as_ptr_range();
        let csr = mapped.csr().payload().as_ptr_range();
        prop_assert!(buf.start <= csr.start && csr.end <= buf.end, "open() must borrow, not copy");
        for (e, wanted) in expected.iter().enumerate() {
            let id = EdgeId::new(e);
            let from_mapped = mapped.witnesses_for(id).unwrap();
            prop_assert_eq!(&from_mapped, wanted, "edge {} diverged (mapped)", e);
            prop_assert_eq!(
                &owned.witnesses_for(id).unwrap(),
                wanted,
                "edge {} diverged (owned)", e
            );
        }
        prop_assert_eq!(mapped.encode(), sharded.clone(), "mapped re-encode must be byte-identical");

        // The monolithic layout imports to the same canonical bytes
        // through both load paths, with the same witness sets.
        let mono_decoded = FrozenSpanner::decode(&mono).expect("monolithic v2 must decode");
        prop_assert_eq!(mono_decoded.encode(), sharded.clone(), "decode must import canonically");
        prop_assert_eq!(mono_decoded.witnesses().unwrap(), expected.as_slice());
        let mono_opened = FrozenSpanner::open(SharedBytes::copy_aligned(&mono))
            .expect("monolithic v2 must open");
        prop_assert_eq!(mono_opened.encode(), sharded, "open must import canonically");
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_sharded_artifact_is_rejected() {
    let (_, bytes) = sharded_fixture();
    for len in 0..bytes.len() {
        assert!(
            FrozenSpanner::decode(&bytes[..len]).is_err(),
            "truncation to {len} bytes must fail"
        );
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            assert!(
                FrozenSpanner::decode(&corrupt).is_err(),
                "flipping byte {i} bit {bit} must be detected"
            );
        }
    }
}

#[test]
fn directed_index_probes_land_on_the_witness_index_code() {
    let (_, bytes) = sharded_fixture();
    let (idx_at, idx_len) = section_range(&bytes, SECTION_WITNESS_INDEX);
    let (w_at, _) = section_range(&bytes, SECTION_WITNESSES);
    let count = u64::from_le_bytes(bytes[idx_at..idx_at + 8].try_into().unwrap()) as usize;
    assert!(count >= 2, "fixture must carry several records");
    assert_eq!(idx_len, 8 * (count + 2), "index payload length is exact");
    let offset_field = |i: usize| idx_at + 8 + 8 * i;

    let expect_code = |mutant: Vec<u8>, code: &str, what: &str| {
        let err = FrozenSpanner::decode(&mutant).unwrap_err();
        assert_eq!(err.code(), code, "{what}: {err}");
    };
    let resealed = |mutate: &dyn Fn(&mut Vec<u8>)| {
        let mut m = bytes.clone();
        mutate(&mut m);
        reseal(&mut m);
        m
    };

    // Offset off the 8-byte grid.
    expect_code(
        resealed(&|m| m[offset_field(1)] = m[offset_field(1)].wrapping_add(1)),
        "artifact/witness-index",
        "misaligned offset",
    );
    // Offsets not strictly increasing.
    expect_code(
        resealed(&|m| {
            let second = m[offset_field(2)..offset_field(2) + 8].to_vec();
            m[offset_field(1)..offset_field(1) + 8].copy_from_slice(&second);
        }),
        "artifact/witness-index",
        "non-monotone offsets",
    );
    // Final offset overshoots the witness payload.
    expect_code(
        resealed(&|m| {
            let at = offset_field(count);
            let v = u64::from_le_bytes(m[at..at + 8].try_into().unwrap()) + 8;
            m[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }),
        "artifact/witness-index",
        "out-of-range final offset",
    );
    // Index count disagrees with the bytes present.
    expect_code(
        resealed(&|m| {
            let v = u64::from_le_bytes(m[idx_at..idx_at + 8].try_into().unwrap()) + 1;
            m[idx_at..idx_at + 8].copy_from_slice(&v.to_le_bytes());
        }),
        "artifact/witness-index",
        "index count skew",
    );
    // Witness map's count header disagrees with the (self-consistent)
    // index.
    expect_code(
        resealed(&|m| {
            let v = u64::from_le_bytes(m[w_at..w_at + 8].try_into().unwrap()) + 1;
            m[w_at..w_at + 8].copy_from_slice(&v.to_le_bytes());
        }),
        "artifact/witness-index",
        "payload count skew",
    );
    // Index section present, sharded flag cleared.
    expect_code(
        resealed(&|m| m[12..16].copy_from_slice(&0u32.to_le_bytes())),
        "artifact/witness-index",
        "index without flag",
    );
    // Contradictory flags: detached and sharded at once.
    expect_code(
        resealed(&|m| {
            m[12..16]
                .copy_from_slice(&(FLAG_WITNESSES_DETACHED | FLAG_WITNESSES_SHARDED).to_le_bytes());
        }),
        "artifact/malformed",
        "detached+sharded flags",
    );
}

#[test]
fn sharded_flag_without_the_index_section_is_missing_section() {
    let g = spanner_graph::generators::complete(7);
    let mut mono = common::monolithic_v2(&FtGreedy::new(&g, 3).faults(1).run().freeze(&g));
    mono[12..16].copy_from_slice(&FLAG_WITNESSES_SHARDED.to_le_bytes());
    reseal(&mut mono);
    let err = FrozenSpanner::decode(&mono).unwrap_err();
    assert_eq!(err.code(), "artifact/missing-section", "{err}");
}

#[test]
fn dirty_record_padding_is_rejected_eagerly_and_lazily() {
    let (_, bytes) = sharded_fixture();
    let (idx_at, _) = section_range(&bytes, SECTION_WITNESS_INDEX);
    let (w_at, _) = section_range(&bytes, SECTION_WITNESSES);
    // Record 0 spans [offsets[0], offsets[1]); its body length is
    // 9 + 4·len, which is odd, so the record always ends in padding —
    // dirty the final byte.
    let end = u64::from_le_bytes(bytes[idx_at + 16..idx_at + 24].try_into().unwrap()) as usize;
    let mut m = bytes.clone();
    m[w_at + end - 1] = 0xff;
    reseal(&mut m);
    // Eager decode forces every record and refuses the file.
    let err = FrozenSpanner::decode(&m).unwrap_err();
    assert_eq!(err.code(), "artifact/witness-index", "{err}");
    // The lazy open accepts the envelope (the index itself is valid),
    // then the per-edge read of the dirty record fails typed — and only
    // that record: other edges keep serving.
    let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&m))
        .expect("envelope and index are still valid");
    let err = mapped.witnesses_for(EdgeId::new(0)).unwrap_err();
    assert_eq!(err.code(), "artifact/witness-index", "{err}");
    mapped
        .witnesses_for(EdgeId::new(1))
        .expect("untouched records must keep serving");
}

#[test]
fn sharded_lookup_touches_only_the_indexed_record() {
    let g = spanner_graph::generators::complete(10);
    let frozen = FtGreedy::new(&g, 3).faults(2).run().freeze(&g);
    let sharded = frozen.encode();
    let (idx_at, idx_len) = section_range(&sharded, SECTION_WITNESS_INDEX);
    let (_, w_len) = section_range(&sharded, SECTION_WITNESSES);

    let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&sharded)).unwrap();
    assert_eq!(
        mapped.witness_bytes_touched(),
        0,
        "open must not scan the payload"
    );
    let e = 3usize;
    let off = |i: usize| {
        u64::from_le_bytes(
            sharded[idx_at + 8 + 8 * i..idx_at + 16 + 8 * i]
                .try_into()
                .unwrap(),
        )
    };
    let record = off(e + 1) - off(e);
    mapped.witnesses_for(EdgeId::new(e)).unwrap();
    let touched = mapped.witness_bytes_touched();
    assert_eq!(
        touched,
        16 + record,
        "one lookup = two index entries + one record extent"
    );
    assert!(
        touched < w_len as u64,
        "a single record must be a strict subset of the section"
    );

    // Forcing the full map pays both witness sections for the same
    // question.
    let forced = FrozenSpanner::open(SharedBytes::copy_aligned(&sharded)).unwrap();
    let all = forced.witnesses().unwrap();
    assert_eq!(all[e], mapped.witnesses_for(EdgeId::new(e)).unwrap());
    let full_touched = forced.witness_bytes_touched();
    assert_eq!(full_touched, (w_len + idx_len) as u64);
    assert!(
        touched * 5 <= full_touched,
        "a per-edge lookup must touch ≥5× fewer bytes ({touched} vs {full_touched})"
    );
    // Forcing again is free (memoized); per-edge lookups meter each
    // record they actually read.
    forced.witnesses().unwrap();
    assert_eq!(forced.witness_bytes_touched(), full_touched);
}

#[test]
fn bare_and_detached_artifacts_interact_sanely_with_sharding() {
    // A bare freeze has no witness map: the sharded artifact carries an
    // empty one, every lookup answers the empty set, and the round trip
    // stays canonical.
    let g = spanner_graph::generators::cycle(6);
    let bare = Spanner::from_parent_edges(&g, [EdgeId::new(1), EdgeId::new(4)], 5).freeze();
    let sharded = bare.encode();
    let back = FrozenSpanner::decode(&sharded).unwrap();
    assert_eq!(back.encode(), sharded);
    assert_eq!(
        back.witnesses_for(EdgeId::new(0)).unwrap(),
        FaultSet::empty(FaultModel::Vertex)
    );
    let mapped = FrozenSpanner::open(SharedBytes::copy_aligned(&sharded)).unwrap();
    assert!(mapped.witnesses_for(EdgeId::new(1)).unwrap().is_empty());

    // A routing-only replica has nothing to shard: `to_v2_sharded` is
    // a no-op and witness lookups keep refusing with the typed error.
    let (frozen, _) = sharded_fixture();
    let detached = frozen.detach_witnesses();
    let resharded = detached.to_v2_sharded();
    assert!(resharded.witnesses_detached());
    assert_eq!(resharded.encode(), detached.encode());
    assert!(matches!(
        resharded.witnesses_for(EdgeId::new(0)),
        Err(ArtifactError::WitnessesDetached)
    ));
}

#[test]
fn corrupt_witness_record_fails_typed_on_opened_artifacts_and_never_panics() {
    let (frozen, bytes) = sharded_fixture();
    // Record 0's model tag (after the payload's count header) becomes an
    // unknown tag; the index stays valid, so a lazy open accepts the
    // file and only readers of that record can notice.
    let (w_at, _) = section_range(&bytes, SECTION_WITNESSES);
    let mut m = bytes.clone();
    m[w_at + 8] = 7;
    reseal(&mut m);
    let code = FrozenSpanner::decode(&m).unwrap_err().code();
    assert_eq!(code, "artifact/malformed");

    let opened = FrozenSpanner::open(SharedBytes::copy_aligned(&m)).expect("index is valid");
    // Accessors that do not read witness records neither fail nor panic.
    assert_eq!(opened.to_v2_sharded().encode(), m);
    let detached = opened.detach_witnesses();
    assert_eq!(detached.encode(), frozen.detach_witnesses().encode());
    // Those that do read the record fail with the decoder's code.
    assert_eq!(
        opened.witnesses_for(EdgeId::new(0)).unwrap_err().code(),
        code
    );
    opened
        .witnesses_for(EdgeId::new(1))
        .expect("other records keep serving");
    assert_eq!(opened.witnesses().unwrap_err().code(), code);
    assert_eq!(opened.encode_v1().unwrap_err().code(), code);

    // The monolithic layout is imported on open, so open reports the
    // corrupt record up front — with the code decode reports.
    let mut mono = common::monolithic_v2(&frozen);
    let (mono_w_at, _) = section_range(&mono, SECTION_WITNESSES);
    mono[mono_w_at + 8] = 7;
    reseal(&mut mono);
    let decoded = FrozenSpanner::decode(&mono).unwrap_err();
    let opened = FrozenSpanner::open(SharedBytes::copy_aligned(&mono)).unwrap_err();
    assert_eq!(decoded.code(), code);
    assert_eq!(opened.code(), decoded.code(), "{opened} vs {decoded}");
}
