//! Exhaustive tests of the TAXG binary codec against malformed input
//! and across every synthetic taxonomy kind, and of the snapshot
//! envelope the codec is saved in.
//!
//! This lives at the workspace root (not in `taxoglimpse-taxonomy`)
//! because the cross-kind round-trip needs the synth generators, which
//! depend on the taxonomy crate.

use taxoglimpse::prelude::*;
use std::fs;
use std::path::Path;
use taxoglimpse::taxonomy::binary::BinaryError;
use taxoglimpse::taxonomy::snapshot::checksum;
use taxoglimpse::taxonomy::{validate, SnapshotStore, TaxonomyBuilder};

fn sample() -> Taxonomy {
    let mut b = TaxonomyBuilder::new("codec-fixture");
    let r = b.add_root("Root");
    let a = b.add_child(r, "Child A");
    b.add_child(a, "Grand");
    b.add_child(r, "Child B");
    b.build().unwrap()
}

/// Byte offsets of every section boundary in the sample's v2 encoding:
/// after magic, version, label length, label bytes, node count, each
/// parent word, the name-block length, each offset entry, and each name
/// inside the contiguous name block.
fn section_boundaries(t: &Taxonomy) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 4; // magic
    offsets.push(pos);
    pos += 2; // version
    offsets.push(pos);
    pos += 4; // label length
    offsets.push(pos);
    pos += t.label().len();
    offsets.push(pos);
    pos += 8; // node count
    offsets.push(pos);
    for _ in t.ids() {
        pos += 4; // parent word
        offsets.push(pos);
    }
    pos += 8; // name-block byte count
    offsets.push(pos);
    for _ in 0..=t.len() {
        pos += 4; // offset-table entry
        offsets.push(pos);
    }
    for id in t.ids() {
        pos += t.name(id).len(); // name bytes within the block
        offsets.push(pos);
    }
    offsets
}

#[test]
fn truncation_at_every_section_boundary_fails_cleanly() {
    let t = sample();
    let bytes = t.to_binary();
    let boundaries = section_boundaries(&t);
    assert_eq!(*boundaries.last().unwrap(), bytes.len(), "boundary math covers the buffer");
    for &cut in &boundaries[..boundaries.len() - 1] {
        let err = Taxonomy::from_binary(&bytes[..cut]).unwrap_err();
        assert_eq!(err, BinaryError::Truncated, "cut at section boundary {cut}");
    }
    assert!(Taxonomy::from_binary(&bytes).is_ok());
}

#[test]
fn truncation_at_every_byte_never_panics() {
    let t = sample();
    for bytes in [t.to_binary(), t.to_binary_v1()] {
        for cut in 0..bytes.len() {
            assert!(Taxonomy::from_binary(&bytes[..cut]).is_err(), "cut at {cut}");
            assert!(Taxonomy::from_binary_owned(bytes[..cut].to_vec()).is_err(), "owned cut at {cut}");
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    assert_eq!(Taxonomy::from_binary(b"").unwrap_err(), BinaryError::BadMagic);
    assert_eq!(Taxonomy::from_binary(b"TAX").unwrap_err(), BinaryError::BadMagic);
    assert_eq!(Taxonomy::from_binary(b"GXAT\x01\x00").unwrap_err(), BinaryError::BadMagic);
    let mut bytes = sample().to_binary();
    bytes[0] = b'X';
    assert_eq!(Taxonomy::from_binary(&bytes).unwrap_err(), BinaryError::BadMagic);
}

#[test]
fn unsupported_version_is_rejected() {
    // v1 and v2 are the supported formats; anything else must be
    // rejected with the version echoed back, on both decode entry
    // points.
    let mut bytes = sample().to_binary();
    bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
    assert_eq!(Taxonomy::from_binary(&bytes).unwrap_err(), BinaryError::BadVersion(3));
    assert_eq!(
        Taxonomy::from_binary_owned(bytes.clone()).unwrap_err(),
        BinaryError::BadVersion(3)
    );
    bytes[4..6].copy_from_slice(&0u16.to_le_bytes());
    assert_eq!(Taxonomy::from_binary(&bytes).unwrap_err(), BinaryError::BadVersion(0));
    assert_eq!(Taxonomy::from_binary_owned(bytes).unwrap_err(), BinaryError::BadVersion(0));
}

#[test]
fn zero_length_label_and_names_round_trip() {
    let mut b = TaxonomyBuilder::new("");
    let r = b.add_root("");
    b.add_child(r, "named");
    b.add_child(r, "");
    let t = b.build().unwrap();
    let back = Taxonomy::from_binary(&t.to_binary()).unwrap();
    assert_eq!(back.label(), "");
    assert_eq!(back.len(), 3);
    let mut names: Vec<&str> = back.ids().map(|id| back.name(id)).collect();
    names.sort();
    assert_eq!(names, ["", "", "named"]);
}

#[test]
fn every_taxonomy_kind_round_trips() {
    for kind in TaxonomyKind::ALL {
        // Small scale keeps even NCBI (2.19M nodes at 1.0) fast.
        let t = generate(kind, GenOptions { seed: 13, scale: 0.02 }).unwrap();
        let bytes = t.to_binary();
        let back = Taxonomy::from_binary(&bytes).unwrap();
        validate(&back).unwrap();
        assert_eq!(back.len(), t.len(), "{kind:?}");
        assert_eq!(back.label(), t.label(), "{kind:?}");
        // Decode→encode is a byte-level fixed point.
        assert_eq!(Taxonomy::from_binary(&back.to_binary()).unwrap().to_binary(), back.to_binary());
        // The buffer-consuming decoder (the snapshot-load fast path)
        // produces the identical taxonomy, for both codec versions.
        assert_eq!(Taxonomy::from_binary_owned(bytes).unwrap().to_binary(), back.to_binary());
        assert_eq!(
            Taxonomy::from_binary_owned(t.to_binary_v1()).unwrap().to_binary(),
            Taxonomy::from_binary(&t.to_binary_v1()).unwrap().to_binary(),
            "{kind:?}"
        );
    }
}

#[test]
fn owned_decode_handles_non_ascii_names() {
    // Non-ASCII names take the slower UTF-8 validation + char-boundary
    // path; the owned decoder must still reuse the buffer correctly.
    let mut b = TaxonomyBuilder::new("unicode");
    let r = b.add_root("Racine α");
    b.add_child(r, "Enfant β");
    b.add_child(r, "été");
    let t = b.build().unwrap();
    let back = Taxonomy::from_binary_owned(t.to_binary()).unwrap();
    validate(&back).unwrap();
    assert_eq!(back.to_binary(), t.to_binary());
    let names: Vec<&str> = back.ids().map(|id| back.name(id)).collect();
    assert_eq!(names, ["Racine α", "Enfant β", "été"]);
}

/// Every kind plus the encoder's edge cases: an empty label with empty
/// names, a single node, and non-ASCII names.
fn codec_cases() -> Vec<Taxonomy> {
    let mut cases: Vec<Taxonomy> = TaxonomyKind::ALL
        .into_iter()
        .map(|kind| generate(kind, GenOptions { seed: 13, scale: 0.02 }).unwrap())
        .collect();
    let mut b = TaxonomyBuilder::new("");
    let r = b.add_root("");
    b.add_child(r, "named");
    b.add_child(r, "");
    cases.push(b.build().unwrap());
    let mut b = TaxonomyBuilder::new("solo");
    b.add_root("only node");
    cases.push(b.build().unwrap());
    let mut b = TaxonomyBuilder::new("unicode ✓");
    let r = b.add_root("Racine α");
    b.add_child(r, "Enfant β");
    b.add_child(r, "été");
    cases.push(b.build().unwrap());
    cases
}

fn temp_store(tag: &str) -> SnapshotStore {
    let dir = std::env::temp_dir()
        .join(format!("taxo-codec-test-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    SnapshotStore::new(dir)
}

#[test]
fn streaming_encoder_and_digest_match_the_buffered_encoding() {
    for t in codec_cases() {
        let bytes = t.to_binary();
        let mut streamed = Vec::new();
        t.write_v2(&mut streamed).unwrap();
        assert_eq!(streamed, bytes, "{:?}: write_v2 differs from to_binary", t.label());
        assert_eq!(t.content_digest(), checksum(&bytes), "{:?}: digest", t.label());
    }
}

#[test]
fn snapshot_save_writes_header_then_payload() {
    let store = temp_store("bytes");
    for (i, t) in codec_cases().iter().enumerate() {
        let key = format!("case-{i}");
        let path = store.save(&key, t).unwrap();
        let payload = t.to_binary();
        let mut expected = b"TXSP".to_vec();
        expected.extend_from_slice(&1u16.to_le_bytes());
        expected.extend_from_slice(&checksum(&payload).to_le_bytes());
        expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(fs::read(&path).unwrap(), expected, "{:?}: saved bytes", t.label());
        assert_eq!(store.load(&key).unwrap().to_binary(), payload, "{:?}: reload", t.label());
    }
    let names: Vec<_> = fs::read_dir(store.dir())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(names.iter().all(|n| n.ends_with(".bin")), "stray files: {names:?}");
    fs::remove_dir_all(store.dir()).unwrap();
}

/// A save whose writes fail partway (the temp path is a link to a
/// device that is always full) reports the error, removes its temp file
/// and leaves the previous snapshot in place.
#[cfg(target_os = "linux")]
#[test]
fn failed_snapshot_save_leaves_no_temp_file() {
    let full = Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let store = temp_store("full");
    let key = "ebay";
    let old = sample();
    let path = store.save(key, &old).unwrap();
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::os::unix::fs::symlink(full, &tmp).unwrap();

    let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 13, scale: 1.0 }).unwrap();
    assert!(store.save(key, &t).is_err(), "a write to a full device must fail");
    assert!(fs::symlink_metadata(&tmp).is_err(), "temp file left behind");
    assert_eq!(store.load(key).unwrap().to_binary(), old.to_binary());
    assert_eq!(fs::read_dir(store.dir()).unwrap().count(), 1);
    fs::remove_dir_all(store.dir()).unwrap();
}
