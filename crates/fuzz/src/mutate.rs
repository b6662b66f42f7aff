//! Structure-aware mutation of `VFTSPANR`/`VFTGRAPH` containers.
//!
//! A naive byte-flipping fuzzer gets stopped at the door: the container
//! verifies its trailing FNV-1a checksum *before* parsing any section,
//! so random corruption almost always lands in the `artifact/bit-flip`
//! bucket and the section parsers never see a hostile byte. The
//! [`Mutator`] therefore understands both container frames — the v1
//! `(tag, len, payload)` record stream and the v2 alignment-padded
//! section table — and reseals most mutants with a recomputed checksum
//! ([`Mutant::checksum_fixed`]) so the mutation reaches the decode
//! logic it is aimed at. Resealing is version-aware: a container whose
//! header declares v2 is sealed with the word-wise
//! [`fnv1a64_words`] the v2 parser verifies, everything else with the
//! byte-wise [`fnv1a64`].
//!
//! Each [`AttackClass`] names a *mutation strategy*, not a decoder
//! outcome: a truncation can surface as `artifact/truncation` or (when
//! it severs a whole section) `artifact/missing-section`; an inflated
//! length field as `artifact/truncation` or `artifact/malformed`. The
//! mapping from class to the set of plausible stable codes is
//! documented in `docs/ARTIFACT_FORMAT.md` §8, and the committed corpus
//! pins observed `(class, code)` pairs by filename.
//!
//! Everything here is deterministic: the same `Mutator` seed and the
//! same seed artifact produce byte-identical mutants, in-process and in
//! CI.

use rand::{rngs::StdRng, Rng, SeedableRng};
use spanner_graph::io::binary::{
    encode_container_v2, fnv1a64, fnv1a64_words, put_u64, V2_HEADER_LEN, V2_SECTION_ENTRY_LEN,
};

/// Byte width of the v1 container header (magic[8] + version u32).
const HEADER_LEN: usize = 12;

/// Byte width of the trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Byte width of a v1 section's `(tag: u32, len: u64)` record header.
const SECTION_HEADER_LEN: usize = 4 + 8;

/// Whether these bytes declare the v2 in-place layout — the same
/// dispatch `FrozenSpanner::decode` uses (version field 2), minus the
/// `VFTGRAPH` magic, which routes to the v1-framed graph codec
/// regardless of its version field.
pub(crate) fn is_v2(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN && bytes[..8] != *b"VFTGRAPH" && bytes[8..12] == 2u32.to_le_bytes()
}

/// The mutation strategies the fuzzer applies, one per adversarial
/// capability we defend against. See the taxonomy appendix in
/// `docs/ARTIFACT_FORMAT.md` §8 for the decoder codes each class is
/// expected to surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackClass {
    /// Cut the byte stream short — mid-field, mid-section, or exactly at
    /// a structural boundary (lost trailing bytes in transfer).
    Truncation,
    /// Flip a single bit. Usually resealed with a fresh checksum so the
    /// corruption reaches the section parsers; left unsealed some of the
    /// time to keep the checksum gate itself under test.
    BitFlip,
    /// Duplicate a section: a complete `(tag, len, payload)` v1 record,
    /// or a v2 re-lay with one tag appearing twice in the table (a
    /// replayed/spliced-in section from another copy of the file).
    SectionReplay,
    /// Transplant one section's payload into another section's frame,
    /// keeping the frame lengths self-consistent (well-formed container,
    /// hostile content).
    SectionSplice,
    /// Inflate a section's length field beyond the bytes that follow
    /// (the classic allocate-from-attacker-controlled-length probe).
    LengthInflation,
    /// Perturb a count field inside one section so it contradicts
    /// another section (e.g. meta's node count vs the table lengths).
    CrossSection,
}

impl AttackClass {
    /// Every class, in the fixed order used by reports and corpus
    /// generation.
    pub const ALL: [AttackClass; 6] = [
        AttackClass::Truncation,
        AttackClass::BitFlip,
        AttackClass::SectionReplay,
        AttackClass::SectionSplice,
        AttackClass::LengthInflation,
        AttackClass::CrossSection,
    ];

    /// Stable kebab-case name, used in corpus filenames and the
    /// `vft-spanner/fuzz-1` findings artifact.
    pub fn name(self) -> &'static str {
        match self {
            AttackClass::Truncation => "truncation",
            AttackClass::BitFlip => "bit-flip",
            AttackClass::SectionReplay => "section-replay",
            AttackClass::SectionSplice => "section-splice",
            AttackClass::LengthInflation => "length-inflation",
            AttackClass::CrossSection => "cross-section",
        }
    }

    /// Parses a [`name`](Self::name) back into the class.
    pub fn from_name(name: &str) -> Option<AttackClass> {
        AttackClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// One hostile input produced by the [`Mutator`].
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The strategy that produced these bytes. When container framing
    /// could not be recovered from the seed, strategies degrade to
    /// [`AttackClass::BitFlip`] and this field says so.
    pub class: AttackClass,
    /// Whether the trailing checksum was recomputed after mutation, so
    /// the bytes pass the integrity gate and exercise section parsing.
    pub checksum_fixed: bool,
    /// The mutated container bytes.
    pub bytes: Vec<u8>,
}

/// One section located by the lenient frame parser: byte offsets into
/// the original container. v1 records are contiguous
/// (`start..payload..end`); v2 sections split across the table entry
/// (`start`) and the padded payload region they point at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameSection {
    /// Offset of the record header: the `tag` u32 of a v1 record, or a
    /// v2 table entry.
    pub(crate) start: usize,
    /// The section tag.
    pub(crate) tag: u32,
    /// Offset of the `len` u64 field (inside the v1 record header or
    /// the v2 table entry).
    pub(crate) len_at: usize,
    /// Offset of the payload.
    pub(crate) payload: usize,
    /// Payload byte length as claimed by the len field (and verified to
    /// fit, else the parser stops).
    pub(crate) len: usize,
}

impl FrameSection {
    pub(crate) fn end(&self) -> usize {
        self.payload + self.len
    }
}

/// Lenient section-frame recovery, dispatching on the declared version:
/// v1 containers are walked as `(tag, len, payload)` records, v2
/// containers through their section table, stopping (not failing) at
/// the first record that does not fit. Unlike the real parsers it
/// tolerates unknown tags, duplicates, and broken padding — mutants of
/// mutants must still be mutable. Also used by
/// [`crate::seeds::directed_probes`] to aim byte surgery at a specific
/// section.
pub(crate) fn frame_sections(bytes: &[u8]) -> Vec<FrameSection> {
    if is_v2(bytes) {
        return frame_sections_v2(bytes);
    }
    let mut sections = Vec::new();
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return sections;
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    let mut at = HEADER_LEN;
    while at + SECTION_HEADER_LEN <= body_end {
        let tag = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len_bytes: [u8; 8] = bytes[at + 4..at + SECTION_HEADER_LEN].try_into().unwrap();
        let len = u64::from_le_bytes(len_bytes);
        let payload = at + SECTION_HEADER_LEN;
        let Some(end) = (len as usize).checked_add(payload) else {
            break;
        };
        if len > (body_end - payload) as u64 {
            break;
        }
        sections.push(FrameSection {
            start: at,
            tag,
            len_at: at + 4,
            payload,
            len: len as usize,
        });
        at = end;
    }
    sections
}

/// The v2 half of [`frame_sections`]: reads the section table leniently
/// (count bounded by the bytes present, entries kept only while their
/// payloads fit), ignoring reserved fields, alignment, and padding —
/// those are the parser's gates, and mutants that break them are still
/// frames worth mutating further.
fn frame_sections_v2(bytes: &[u8]) -> Vec<FrameSection> {
    let mut sections = Vec::new();
    if bytes.len() < V2_HEADER_LEN + CHECKSUM_LEN {
        return sections;
    }
    let body_end = bytes.len() - CHECKSUM_LEN;
    let claimed = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let fits = ((body_end - V2_HEADER_LEN) / V2_SECTION_ENTRY_LEN) as u64;
    for i in 0..claimed.min(fits) as usize {
        let entry = V2_HEADER_LEN + i * V2_SECTION_ENTRY_LEN;
        let tag = u32::from_le_bytes(bytes[entry..entry + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap());
        let (Ok(payload), Ok(len)) = (usize::try_from(offset), usize::try_from(len)) else {
            break;
        };
        if payload < V2_HEADER_LEN || !payload.checked_add(len).is_some_and(|end| end <= body_end) {
            break;
        }
        sections.push(FrameSection {
            start: entry,
            tag,
            len_at: entry + 16,
            payload,
            len,
        });
    }
    sections
}

/// Recomputes and rewrites the trailing checksum so the mutant passes
/// the integrity gate, with the checksum the declared version's parser
/// verifies (word-wise for v2, byte-wise otherwise). No-op on inputs
/// too short to carry one.
pub fn fix_checksum(bytes: &mut Vec<u8>) -> bool {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return false;
    }
    let body = bytes.len() - CHECKSUM_LEN;
    let sum = if is_v2(bytes) {
        fnv1a64_words(&bytes[..body])
    } else {
        fnv1a64(&bytes[..body])
    };
    bytes.truncate(body);
    put_u64(bytes, sum);
    true
}

/// Re-lays a v2 container from `(tag, payload)` parts with the seed's
/// magic, version, and flags — canonical framing (honest table, correct
/// padding, fresh word-wise checksum) around whatever hostile content
/// the parts carry.
fn rebuild_v2(seed: &[u8], parts: Vec<(u32, Vec<u8>)>) -> Vec<u8> {
    let mut magic = [0u8; 8];
    magic.copy_from_slice(&seed[..8]);
    let version = u32::from_le_bytes(seed[8..12].try_into().unwrap());
    let flags = u32::from_le_bytes(seed[12..16].try_into().unwrap());
    let parts: Vec<(u32, &[u8])> = parts.iter().map(|(tag, p)| (*tag, &p[..])).collect();
    encode_container_v2(magic, version, flags, &parts)
}

/// The seeded structure-aware mutation engine.
///
/// Deterministic by construction: mutants depend only on the seed value
/// and the sequence of calls, never on time, addresses, or iteration
/// order of anything unordered.
pub struct Mutator {
    rng: StdRng,
}

impl Mutator {
    /// Creates a mutator from a seed. Equal seeds ⇒ equal mutant
    /// streams.
    pub fn new(seed: u64) -> Self {
        Mutator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Produces one mutant of `seed_bytes`, cycling the attack class
    /// pseudo-randomly.
    pub fn mutate(&mut self, seed_bytes: &[u8]) -> Mutant {
        let class = AttackClass::ALL[self.rng.gen_range(0..AttackClass::ALL.len())];
        self.mutate_class(class, seed_bytes)
    }

    /// Produces one mutant using the given strategy. Strategies that
    /// need recoverable section framing fall back to a plain bit flip
    /// (reported as [`AttackClass::BitFlip`]) when the seed has none.
    pub fn mutate_class(&mut self, class: AttackClass, seed_bytes: &[u8]) -> Mutant {
        match class {
            AttackClass::Truncation => self.truncate(seed_bytes),
            AttackClass::BitFlip => self.bit_flip(seed_bytes),
            AttackClass::SectionReplay => self.section_replay(seed_bytes),
            AttackClass::SectionSplice => self.section_splice(seed_bytes),
            AttackClass::LengthInflation => self.length_inflation(seed_bytes),
            AttackClass::CrossSection => self.cross_section(seed_bytes),
        }
    }

    fn truncate(&mut self, seed: &[u8]) -> Mutant {
        if seed.is_empty() {
            return Mutant {
                class: AttackClass::Truncation,
                checksum_fixed: false,
                bytes: Vec::new(),
            };
        }
        // Half the time cut at a structural boundary (header edge,
        // section edge, checksum start) — those are the cuts a partial
        // transfer actually produces; otherwise cut anywhere.
        let sections = frame_sections(seed);
        let cut = if self.rng.gen_bool(0.5) && !sections.is_empty() {
            let mut boundaries = vec![HEADER_LEN.min(seed.len())];
            boundaries.extend(sections.iter().map(|s| s.end().min(seed.len())));
            boundaries.push(seed.len().saturating_sub(CHECKSUM_LEN));
            boundaries[self.rng.gen_range(0..boundaries.len())]
        } else {
            self.rng.gen_range(0..seed.len())
        };
        let mut bytes = seed[..cut].to_vec();
        // Resealing a truncated body sometimes turns "stream ended
        // early" into "a required section is absent" — both are attacks
        // worth exercising.
        let checksum_fixed = self.rng.gen_bool(0.5) && fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::Truncation,
            checksum_fixed,
            bytes,
        }
    }

    fn bit_flip(&mut self, seed: &[u8]) -> Mutant {
        let mut bytes = seed.to_vec();
        if !bytes.is_empty() {
            let at = self.rng.gen_range(0..bytes.len());
            let bit = self.rng.gen_range(0..8u32);
            bytes[at] ^= 1 << bit;
        }
        // Mostly reseal, so the flip reaches the section parsers; leave
        // a quarter unsealed to keep the checksum gate itself covered.
        let checksum_fixed = self.rng.gen_bool(0.75) && fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::BitFlip,
            checksum_fixed,
            bytes,
        }
    }

    fn section_replay(&mut self, seed: &[u8]) -> Mutant {
        let sections = frame_sections(seed);
        if sections.is_empty() {
            return self.degrade(seed);
        }
        let dup = self.rng.gen_range(0..sections.len());
        let bytes = if is_v2(seed) {
            // v2 sections are not contiguous records; replay the chosen
            // one through the canonical writer instead — honest framing
            // carrying a duplicated tag.
            let mut parts = Vec::with_capacity(sections.len() + 1);
            for (i, s) in sections.iter().enumerate() {
                parts.push((s.tag, seed[s.payload..s.end()].to_vec()));
                if i == dup {
                    parts.push((s.tag, seed[s.payload..s.end()].to_vec()));
                }
            }
            rebuild_v2(seed, parts)
        } else {
            let s = sections[dup];
            let mut bytes = Vec::with_capacity(seed.len() + (s.end() - s.start));
            bytes.extend_from_slice(&seed[..s.end()]);
            bytes.extend_from_slice(&seed[s.start..s.end()]);
            bytes.extend_from_slice(&seed[s.end()..]);
            bytes
        };
        let mut bytes = bytes;
        let checksum_fixed = fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::SectionReplay,
            checksum_fixed,
            bytes,
        }
    }

    fn section_splice(&mut self, seed: &[u8]) -> Mutant {
        let sections = frame_sections(seed);
        if sections.is_empty() {
            return self.degrade(seed);
        }
        // Rebuild the container with one section's payload transplanted
        // into another's frame (or emptied, if there is only one
        // section), keeping every length field honest: the frame stays
        // well-formed while the content lies.
        //
        // When the seed carries the sharded witness pair (map tag 4,
        // offset index tag 6), aim at it half the time: transplanting
        // one over the other is exactly the index/payload skew the
        // `artifact/witness-index` validation exists for, and random
        // section picks would reach it too rarely.
        let witness_pair = || {
            let at = |tag| sections.iter().position(|s| s.tag == tag);
            Some((at(4)?, at(6)?))
        };
        let (dst, src) = match witness_pair() {
            Some((map, idx)) if self.rng.gen_bool(0.5) => {
                if self.rng.gen_bool(0.5) {
                    (idx, map)
                } else {
                    (map, idx)
                }
            }
            _ => (
                self.rng.gen_range(0..sections.len()),
                self.rng.gen_range(0..sections.len()),
            ),
        };
        let donor: &[u8] = if sections.len() > 1 && src != dst {
            &seed[sections[src].payload..sections[src].end()]
        } else {
            &[]
        };
        let mut bytes = if is_v2(seed) {
            let parts = sections
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let payload = if i == dst {
                        donor
                    } else {
                        &seed[s.payload..s.end()]
                    };
                    (s.tag, payload.to_vec())
                })
                .collect();
            rebuild_v2(seed, parts)
        } else {
            let mut bytes = seed[..HEADER_LEN.min(seed.len())].to_vec();
            for (i, s) in sections.iter().enumerate() {
                let payload = if i == dst {
                    donor
                } else {
                    &seed[s.payload..s.end()]
                };
                bytes.extend_from_slice(&seed[s.start..s.start + 4]);
                put_u64(&mut bytes, payload.len() as u64);
                bytes.extend_from_slice(payload);
            }
            bytes.extend_from_slice(&[0u8; CHECKSUM_LEN]);
            bytes
        };
        let checksum_fixed = fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::SectionSplice,
            checksum_fixed,
            bytes,
        }
    }

    fn length_inflation(&mut self, seed: &[u8]) -> Mutant {
        let sections = frame_sections(seed);
        if sections.is_empty() {
            return self.degrade(seed);
        }
        let s = sections[self.rng.gen_range(0..sections.len())];
        let mut bytes = seed.to_vec();
        // Sometimes a plausible off-by-some inflation, sometimes an
        // absurd one aimed at allocation sizing.
        let inflated: u64 = if self.rng.gen_bool(0.5) {
            s.len as u64 + self.rng.gen_range(1..=4096u64)
        } else {
            self.rng.gen_range(u64::from(u32::MAX)..u64::MAX / 2)
        };
        bytes[s.len_at..s.len_at + 8].copy_from_slice(&inflated.to_le_bytes());
        let checksum_fixed = fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::LengthInflation,
            checksum_fixed,
            bytes,
        }
    }

    fn cross_section(&mut self, seed: &[u8]) -> Mutant {
        let sections = frame_sections(seed);
        // Collect every u64-sized slot inside section payloads; count
        // and length fields all live in such slots, so perturbing one
        // makes two sections (or a header and a table) disagree.
        let slots: Vec<usize> = sections
            .iter()
            .flat_map(|s| (s.payload..s.end().saturating_sub(7)).step_by(2))
            .collect();
        if slots.is_empty() {
            return self.degrade(seed);
        }
        let at = slots[self.rng.gen_range(0..slots.len())];
        let mut bytes = seed.to_vec();
        let old = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let delta = self.rng.gen_range(1..=1024u64);
        let new = if self.rng.gen_bool(0.5) {
            old.wrapping_add(delta)
        } else {
            old.wrapping_sub(delta)
        };
        bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
        let checksum_fixed = fix_checksum(&mut bytes);
        Mutant {
            class: AttackClass::CrossSection,
            checksum_fixed,
            bytes,
        }
    }

    /// Fallback when a structure-aware strategy finds no usable frame:
    /// a plain bit flip, honestly labelled as such.
    fn degrade(&mut self, seed: &[u8]) -> Mutant {
        self.bit_flip(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_graph::io::binary::ContainerWriter;

    /// A tiny well-formed v1 container with three sections to mutate.
    fn sample() -> Vec<u8> {
        let mut w = ContainerWriter::new(*b"VFTSPANR", 1);
        w.section(1, &[7u8; 34]);
        w.section(2, &42u64.to_le_bytes());
        w.section(3, &[1, 2, 3, 4, 5]);
        w.finish()
    }

    /// The same three sections in the v2 alignment-padded layout.
    fn sample_v2() -> Vec<u8> {
        encode_container_v2(
            *b"VFTSPANR",
            2,
            0,
            &[
                (1, &[7u8; 34]),
                (2, &42u64.to_le_bytes()),
                (3, &[1, 2, 3, 4, 5]),
            ],
        )
    }

    #[test]
    fn framing_recovers_all_sections() {
        let bytes = sample();
        let sections = frame_sections(&bytes);
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0].len, 34);
        assert_eq!(sections[1].len, 8);
        assert_eq!(sections[2].len, 5);
        assert_eq!(
            sections[2].end(),
            bytes.len() - CHECKSUM_LEN,
            "sections must tile the body exactly"
        );
    }

    #[test]
    fn fix_checksum_reseals() {
        let mut bytes = sample();
        bytes[HEADER_LEN] ^= 0xFF;
        assert!(fix_checksum(&mut bytes));
        let body = bytes.len() - CHECKSUM_LEN;
        let stored = u64::from_le_bytes(bytes[body..].try_into().unwrap());
        assert_eq!(stored, fnv1a64(&bytes[..body]));
    }

    #[test]
    fn framing_recovers_v2_sections_from_the_table() {
        let bytes = sample_v2();
        let sections = frame_sections(&bytes);
        assert_eq!(sections.len(), 3);
        assert_eq!(
            sections.iter().map(|s| s.tag).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert_eq!(sections[0].len, 34);
        assert_eq!(sections[1].len, 8);
        assert_eq!(sections[2].len, 5);
        // Table entries sit in the header region; payloads are 8-aligned
        // except possibly the last (nothing follows it to misalign).
        for s in &sections[..2] {
            assert_eq!(s.payload % 8, 0, "payload at {}", s.payload);
        }
        assert_eq!(
            sections[0].payload,
            V2_HEADER_LEN + 3 * V2_SECTION_ENTRY_LEN
        );
        assert_eq!(
            sections[2].end(),
            bytes.len() - CHECKSUM_LEN,
            "last payload must run to the checksum"
        );
    }

    #[test]
    fn fix_checksum_reseals_v2_with_the_word_checksum() {
        let mut bytes = sample_v2();
        let payload = frame_sections(&bytes)[0].payload;
        bytes[payload] ^= 0xFF;
        assert!(fix_checksum(&mut bytes));
        let body = bytes.len() - CHECKSUM_LEN;
        let stored = u64::from_le_bytes(bytes[body..].try_into().unwrap());
        assert_eq!(stored, fnv1a64_words(&bytes[..body]));
        assert_ne!(stored, fnv1a64(&bytes[..body]), "must not seal byte-wise");
    }

    #[test]
    fn every_class_mutates_a_well_formed_v2_container() {
        let seed = sample_v2();
        let mut m = Mutator::new(9);
        for class in AttackClass::ALL {
            let mutant = m.mutate_class(class, &seed);
            assert_eq!(mutant.class, class, "v2 framing present, no degrade");
            assert_ne!(mutant.bytes, seed, "mutant must differ from seed");
        }
    }

    #[test]
    fn equal_seeds_produce_identical_mutant_streams() {
        let seed = sample();
        let run = |s: u64| {
            let mut m = Mutator::new(s);
            (0..64).map(|_| m.mutate(&seed)).collect::<Vec<_>>()
        };
        let (a, b) = (run(11), run(11));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.checksum_fixed, y.checksum_fixed);
            assert_eq!(x.bytes, y.bytes);
        }
        // And a different seed diverges somewhere (not a fixed stream).
        let c = run(12);
        assert!(a.iter().zip(&c).any(|(x, y)| x.bytes != y.bytes));
    }

    #[test]
    fn every_class_mutates_a_well_formed_container() {
        let seed = sample();
        let mut m = Mutator::new(3);
        for class in AttackClass::ALL {
            let mutant = m.mutate_class(class, &seed);
            assert_eq!(mutant.class, class, "framing present, no degrade");
            assert_ne!(mutant.bytes, seed, "mutant must differ from seed");
            assert_eq!(AttackClass::from_name(class.name()), Some(class));
        }
    }

    #[test]
    fn structure_aware_classes_degrade_to_bit_flip_without_framing() {
        let mut m = Mutator::new(5);
        let garbage = vec![0xAB; 10];
        for class in [
            AttackClass::SectionReplay,
            AttackClass::SectionSplice,
            AttackClass::LengthInflation,
            AttackClass::CrossSection,
        ] {
            let mutant = m.mutate_class(class, &garbage);
            assert_eq!(mutant.class, AttackClass::BitFlip);
        }
    }

    #[test]
    fn checksum_fixed_mutants_pass_the_integrity_gate() {
        let seed = sample();
        let mut m = Mutator::new(7);
        let mut fixed_seen = 0;
        for _ in 0..128 {
            let mutant = m.mutate(&seed);
            if !mutant.checksum_fixed || mutant.bytes.len() < HEADER_LEN + CHECKSUM_LEN {
                continue;
            }
            fixed_seen += 1;
            let body = mutant.bytes.len() - CHECKSUM_LEN;
            let stored = u64::from_le_bytes(mutant.bytes[body..].try_into().unwrap());
            assert_eq!(stored, fnv1a64(&mutant.bytes[..body]));
        }
        assert!(fixed_seen > 32, "resealing should be the common case");
    }
}
