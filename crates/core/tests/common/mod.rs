//! Helpers shared by the artifact integration tests.

use spanner_core::frozen::{
    ARTIFACT_MAGIC, ARTIFACT_VERSION, ARTIFACT_VERSION_V2, FLAG_WITNESSES_SHARDED,
    SECTION_WITNESSES, SECTION_WITNESS_INDEX,
};
use spanner_core::FrozenSpanner;
use spanner_graph::io::binary::{encode_container_v2, parse_container, parse_container_v2};

/// `frozen` in the monolithic-witness v2 layout, which the library
/// imports but no longer writes: the canonical sections, with the v1
/// (unpadded, unindexed) witness map in place of the sharded one, no
/// witness index, and header flags 0.
pub fn monolithic_v2(frozen: &FrozenSpanner) -> Vec<u8> {
    let canonical = frozen.encode();
    let v1 = frozen.encode_v1().expect("the artifact carries witnesses");
    let sections = parse_container_v2(
        &canonical,
        ARTIFACT_MAGIC,
        ARTIFACT_VERSION_V2,
        FLAG_WITNESSES_SHARDED,
    )
    .expect("canonical bytes parse")
    .sections;
    let v1_witnesses = parse_container(&v1, ARTIFACT_MAGIC, ARTIFACT_VERSION)
        .expect("v1 bytes parse")
        .section(SECTION_WITNESSES)
        .expect("v1 carries the witness map");
    let parts: Vec<(u32, &[u8])> = sections
        .iter()
        .filter(|s| s.tag != SECTION_WITNESS_INDEX)
        .map(|s| match s.tag {
            SECTION_WITNESSES => (s.tag, v1_witnesses),
            tag => (tag, &canonical[s.offset..s.offset + s.len]),
        })
        .collect();
    encode_container_v2(ARTIFACT_MAGIC, ARTIFACT_VERSION_V2, 0, &parts)
}
