//! Seed artifacts for the fuzzer: small, varied, legitimately-encoded
//! containers the [`Mutator`](crate::mutate::Mutator) corrupts.
//!
//! Structure-aware fuzzing is only as good as its seeds: a mutant of a
//! bare freeze can never exercise the witness-map cross-checks, and a
//! mutant of a vertex-model artifact never walks the edge-model decode
//! arm. So the seed set deliberately spans both container kinds
//! (`VFTSPANR` spanner artifacts, `VFTGRAPH` standalone graphs), both
//! container versions (v1 record framing and the v2 in-place section
//! table), both fault models, budgets f ∈ {0, 1, 2}, with-parent and
//! bare freezes, and empty through moderately-sized graphs — every
//! decode arm has at least one seed whose mutants reach it.
//!
//! Seeds are deterministic (fixed generator seeds, no clocks), so the
//! corpus files derived from them are stable across runs and machines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spanner_core::{greedy_spanner, FtGreedy};
use spanner_faults::FaultModel;
use spanner_graph::io::binary::encode_frozen_csr;
use spanner_graph::{generators, FrozenCsr, Graph};

/// One seed: a short stable name (used in logs and corpus filenames)
/// plus the encoded container bytes.
pub struct Seed {
    /// Stable kebab-case name of the seed construction.
    pub name: &'static str,
    /// The legitimately-encoded container bytes.
    pub bytes: Vec<u8>,
}

fn ft_artifact(g: &Graph, stretch: u64, f: usize, model: FaultModel) -> Vec<u8> {
    FtGreedy::new(g, stretch)
        .faults(f)
        .model(model)
        .run()
        .freeze(g)
        .encode_v1()
        .expect("a freeze carries its witness map")
}

/// `VFTSPANR` spanner-artifact seeds: both fault models, f ∈ {0, 1, 2},
/// with-parent and bare freezes.
pub fn spanner_seeds() -> Vec<Seed> {
    let mut rng = StdRng::seed_from_u64(1009);
    let geometric = generators::random_geometric(12, 0.6, &mut rng);
    vec![
        Seed {
            name: "complete6-f1-vertex",
            bytes: ft_artifact(&generators::complete(6), 3, 1, FaultModel::Vertex),
        },
        Seed {
            name: "cycle8-f0-vertex",
            bytes: ft_artifact(&generators::cycle(8), 3, 0, FaultModel::Vertex),
        },
        Seed {
            name: "geometric12-f2-edge",
            bytes: ft_artifact(&geometric, 3, 2, FaultModel::Edge),
        },
        Seed {
            name: "grid3x3-f1-vertex",
            bytes: ft_artifact(&generators::grid(3, 3), 5, 1, FaultModel::Vertex),
        },
        Seed {
            // Bare freeze: no parent, no budget, no witnesses — the
            // optional-section decode arms.
            name: "petersen-bare",
            bytes: greedy_spanner(&generators::petersen(), 3)
                .freeze()
                .encode_v1()
                .expect("a freeze carries its witness map"),
        },
    ]
}

/// `VFTGRAPH` standalone frozen-graph seeds, including the empty graph
/// (zero sections of payload is itself an edge case worth mutating).
pub fn graph_seeds() -> Vec<Seed> {
    let mut rng = StdRng::seed_from_u64(2003);
    let sparse = generators::erdos_renyi(10, 0.3, &mut rng);
    vec![
        Seed {
            name: "petersen-graph",
            bytes: encode_frozen_csr(&FrozenCsr::from_view(&generators::petersen())),
        },
        Seed {
            name: "cycle5-graph",
            bytes: encode_frozen_csr(&FrozenCsr::from_view(&generators::cycle(5))),
        },
        Seed {
            name: "empty-graph",
            bytes: encode_frozen_csr(&FrozenCsr::from_view(&Graph::new(0))),
        },
        Seed {
            name: "erdos10-graph",
            bytes: encode_frozen_csr(&FrozenCsr::from_view(&sparse)),
        },
    ]
}

/// Monolithic-witness v2 containers (the layout before the witness
/// index): one with every section present, one bare. Mutants of these
/// reach the v2 envelope gates — section-table bounds, alignment,
/// canonical offsets, padding — that no v1 seed can exercise, and the
/// monolithic import path. Nothing writes this layout any more, so the
/// seeds are the committed corpus files the earlier writer produced
/// (`complete6-f1-vertex` and `petersen-bare`, re-laid monolithic),
/// byte for byte. Witnesses stay attached: every seed must decode
/// cleanly.
pub fn v2_seeds() -> Vec<Seed> {
    vec![
        Seed {
            name: "complete6-f1-vertex-v2",
            bytes: include_bytes!("../../../fuzz/corpus/seed__ok__88b44a6bfbf11955.bin").to_vec(),
        },
        Seed {
            name: "petersen-bare-v2",
            bytes: include_bytes!("../../../fuzz/corpus/seed__ok__e23b5f99891d25de.bin").to_vec(),
        },
    ]
}

/// Canonical v2 containers: the sharded witness map, its per-edge
/// offset index (tag 6) and `FLAG_WITNESSES_SHARDED` — what every
/// artifact is held and written as. Mutants of these are the only way
/// the random sampler reaches the index-validation gates — offset
/// monotonicity and alignment, index/payload agreement, record padding —
/// so both fault models ride along. Every seed still decodes cleanly.
pub fn sharded_seeds() -> Vec<Seed> {
    use spanner_core::FrozenSpanner;
    let shard = |bytes: Vec<u8>| {
        FrozenSpanner::decode(&bytes)
            .expect("own seed bytes decode")
            .encode()
    };
    let mut rng = StdRng::seed_from_u64(1009);
    let geometric = generators::random_geometric(12, 0.6, &mut rng);
    vec![
        Seed {
            name: "complete6-f1-vertex-v2-sharded",
            bytes: shard(ft_artifact(
                &generators::complete(6),
                3,
                1,
                FaultModel::Vertex,
            )),
        },
        Seed {
            name: "geometric12-f2-edge-v2-sharded",
            bytes: shard(ft_artifact(&geometric, 3, 2, FaultModel::Edge)),
        },
    ]
}

/// All seeds, spanner artifacts first, v2 re-encodings then sharded
/// re-encodings last — the order is part of the determinism contract
/// (mutant streams index into it), which is why each new family was
/// *appended* rather than interleaved.
pub fn all_seeds() -> Vec<Seed> {
    let mut seeds = spanner_seeds();
    seeds.extend(graph_seeds());
    seeds.extend(v2_seeds());
    seeds.extend(sharded_seeds());
    seeds
}

/// One hand-aimed hostile input: a deterministic byte surgery designed
/// to surface a *specific* decoder defect.
pub struct Probe {
    /// The attack class the surgery belongs to (a
    /// [`crate::mutate::AttackClass`] name, used in the corpus file
    /// name).
    pub class: &'static str,
    /// The hostile bytes.
    pub bytes: Vec<u8>,
}

/// Directed probes: where the random mutator *samples* the attack
/// surface, these aim one input at each decoder gate the sampler may
/// miss in a small committed corpus — wrong magic, wrong version,
/// unknown tag, dropped required section, simple-graph violation, raw
/// truncation, unsealed corruption, a v2 payload off the 8-byte grid,
/// and a routing-only (witnesses-detached) artifact. `spanner-fuzz
/// corpus` labels each with its observed stable code and then
/// *requires* the combined corpus to cover the whole decode taxonomy,
/// so a code silently becoming unreachable fails corpus regeneration.
pub fn directed_probes() -> Vec<Probe> {
    use crate::mutate::{fix_checksum, frame_sections};

    // The richest seed: all five VFTSPANR sections present.
    let seed = spanner_seeds().swap_remove(0).bytes;
    let sections = frame_sections(&seed);
    let tag_of = |s: &crate::mutate::FrameSection| s.tag;
    let mut probes = Vec::new();

    // Raw truncation: too short to even carry a header.
    probes.push(Probe {
        class: "truncation",
        bytes: seed[..6].to_vec(),
    });

    // Unsealed corruption: one flipped payload bit, checksum left
    // stale — the integrity gate itself.
    let mut unsealed = seed.clone();
    unsealed[16] ^= 0x01;
    probes.push(Probe {
        class: "bit-flip",
        bytes: unsealed,
    });

    // Wrong magic, resealed so only the magic is at fault.
    let mut magic = seed.clone();
    magic[0] ^= 0xFF;
    fix_checksum(&mut magic);
    probes.push(Probe {
        class: "bit-flip",
        bytes: magic,
    });

    // Unsupported version, resealed.
    let mut version = seed.clone();
    version[8..12].copy_from_slice(&99u32.to_le_bytes());
    fix_checksum(&mut version);
    probes.push(Probe {
        class: "bit-flip",
        bytes: version,
    });

    // Unknown section tag, resealed.
    let mut unknown = seed.clone();
    unknown[12..16].copy_from_slice(&0xBEEFu32.to_le_bytes());
    fix_checksum(&mut unknown);
    probes.push(Probe {
        class: "bit-flip",
        bytes: unknown,
    });

    // A required section dropped: rebuild the container without the
    // spanner adjacency (tag 2), every remaining length still honest.
    let mut dropped = seed[..12].to_vec();
    for s in &sections {
        if tag_of(s) == 2 {
            continue;
        }
        dropped.extend_from_slice(&seed[s.start..s.end()]);
    }
    dropped.extend_from_slice(&[0u8; 8]);
    fix_checksum(&mut dropped);
    probes.push(Probe {
        class: "section-splice",
        bytes: dropped,
    });

    // Simple-graph violation: duplicate an edge in the parent graph.
    // (Self-loops and range violations are caught per-record as
    // `artifact/malformed`; a *parallel edge* is only detectable by the
    // graph structure itself, surfacing as `BinaryError::Graph` —
    // `artifact/graph-invariant`.) Payload layout per §2: node_count
    // u64, edge_count u64, then 16-byte (u: u32, v: u32, w: u64)
    // records.
    if let Some(parent) = sections.iter().find(|s| tag_of(s) == 5) {
        if parent.len >= 16 + 32 {
            let mut duplicated = seed.clone();
            let edges = parent.payload + 16;
            let first: [u8; 16] = duplicated[edges..edges + 16].try_into().unwrap();
            duplicated[edges + 16..edges + 32].copy_from_slice(&first);
            fix_checksum(&mut duplicated);
            probes.push(Probe {
                class: "cross-section",
                bytes: duplicated,
            });
        }
    }

    // v2 misaligned payload: nudge one section offset off the 8-byte
    // grid in the richest seed's monolithic v2 layout, resealed (word-wise,
    // via the version-aware `fix_checksum`) so the alignment gate —
    // checked before the canonical-position gate — is what trips:
    // `artifact/misaligned-section`.
    let v2 = v2_seeds().swap_remove(0).bytes;
    let v2_sections = frame_sections(&v2);
    let off_at = v2_sections[1].start + 8;
    let mut misaligned = v2.clone();
    let old = u64::from_le_bytes(misaligned[off_at..off_at + 8].try_into().unwrap());
    misaligned[off_at..off_at + 8].copy_from_slice(&(old + 1).to_le_bytes());
    fix_checksum(&mut misaligned);
    probes.push(Probe {
        class: "bit-flip",
        bytes: misaligned,
    });

    // Routing-only artifact: legitimately built with the witness
    // section detached. The container decodes, but serving witness
    // queries from it refuses with `artifact/witnesses-detached` — the
    // replay harness probes that accessor, and the corpus pins the
    // refusal. Classed as a splice: operationally this is a witness
    // section gone missing relative to what the consumer expected.
    let detached = spanner_core::FrozenSpanner::decode(&seed)
        .expect("own seed bytes decode")
        .detach_witnesses()
        .encode();
    probes.push(Probe {
        class: "section-splice",
        bytes: detached,
    });

    // Sharded witness-index probes: the offset index (tag 6) is pure
    // derived metadata, so every gate below is an index/payload
    // disagreement the random sampler would need a lucky resealed hit
    // to reach — and `artifact/witness-index` coverage must not depend
    // on luck.
    let sharded = spanner_core::FrozenSpanner::decode(&seed)
        .expect("own seed bytes decode")
        .encode();
    let s_sections = frame_sections(&sharded);
    let idx = s_sections
        .iter()
        .find(|s| tag_of(s) == 6)
        .expect("sharded seed carries the witness index");
    let wmap = s_sections
        .iter()
        .find(|s| tag_of(s) == 4)
        .expect("sharded seed carries the witness map");
    let reseal = |mut bytes: Vec<u8>| {
        fix_checksum(&mut bytes);
        bytes
    };
    let bump_u64 = |bytes: &mut [u8], at: usize, delta: u64| {
        let old = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        bytes[at..at + 8].copy_from_slice(&(old.wrapping_add(delta)).to_le_bytes());
    };

    // A record offset nudged off the 8-byte grid (also breaks
    // monotonicity's neighbor — alignment is checked first).
    let mut nudged = sharded.clone();
    bump_u64(&mut nudged, idx.payload + 16, 1);
    probes.push(Probe {
        class: "cross-section",
        bytes: reseal(nudged),
    });

    // The final offset overshoots the witness payload it must close.
    let count =
        u64::from_le_bytes(sharded[idx.payload..idx.payload + 8].try_into().unwrap()) as usize;
    let mut overshoot = sharded.clone();
    bump_u64(&mut overshoot, idx.payload + 8 + 8 * count, 8);
    probes.push(Probe {
        class: "cross-section",
        bytes: reseal(overshoot),
    });

    // Index section present with the sharded header flag cleared — the
    // section/flag bijection, from the section side.
    let mut unflagged = sharded.clone();
    unflagged[12..16].copy_from_slice(&0u32.to_le_bytes());
    probes.push(Probe {
        class: "section-splice",
        bytes: reseal(unflagged),
    });

    // Record 0's length claim inflated past its indexed extent
    // (record layout: model u8 at +8, len u64 at +9, after the count
    // header) — the per-record id list now runs off the slice the
    // index brackets.
    let mut inflated = sharded.clone();
    bump_u64(&mut inflated, wmap.payload + 9, 2);
    probes.push(Probe {
        class: "length-inflation",
        bytes: reseal(inflated),
    });
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_harness::corpus::{decode_outcome, DecodeOutcome};

    #[test]
    fn every_seed_decodes_cleanly_and_deterministically() {
        let seeds = all_seeds();
        assert!(
            seeds.len() >= 13,
            "v1, graph, v2, and sharded seeds must all be present"
        );
        for seed in &seeds {
            let outcome = decode_outcome(&seed.bytes)
                .unwrap_or_else(|why| panic!("seed {}: {why}", seed.name));
            assert_eq!(
                outcome,
                DecodeOutcome::Accepted,
                "seed {} must decode",
                seed.name
            );
        }
    }

    #[test]
    fn seeds_are_reproducible() {
        let a = all_seeds();
        let b = all_seeds();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.bytes, y.bytes, "seed {} must be deterministic", x.name);
        }
    }
}
