//! Content-addressed on-disk taxonomy snapshots.
//!
//! Generating the NCBI-scale forest costs hundreds of milliseconds;
//! loading its binary snapshot costs tens. Since every bench bin wants
//! the same `(kind, seed, scale)` taxonomies, a small on-disk cache
//! amortizes generation across the whole bench suite: generate once,
//! load from binary thereafter.
//!
//! The cache is *content-addressed by construction inputs*: the caller
//! builds a key naming everything that determines the bytes (kind
//! label, seed, scale bits, codec version, generator stream version),
//! and the file is additionally integrity-checked — a rolling checksum
//! over the payload is stored in the header and verified on load.
//! Any mismatch (truncation, corruption, a key colliding with a stale
//! format) makes [`SnapshotStore::load`] return `None`, and the caller
//! regenerates. A snapshot can therefore be deleted or corrupted at any
//! time without poisoning results; the worst case is a regeneration.
//!
//! File layout (little-endian):
//!
//! ```text
//! magic    : b"TXSP"
//! version  : u16 (currently 1)
//! checksum : u64 rolling checksum of payload
//! length   : u64 payload byte count
//! payload  : TAXG binary taxonomy (see crate::binary)
//! ```
//!
//! Saves go through a temp file + rename so a crashed writer leaves
//! either the old snapshot or none, never a half-written one; a failed
//! save removes its temp file. The payload is streamed from the
//! taxonomy twice (checksum, then disk) and never copied into memory.

use crate::arena::Taxonomy;
use crate::binary::CODEC_VERSION;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"TXSP";
const SNAPSHOT_VERSION: u16 = 1;
const HEADER_LEN: usize = 4 + 2 + 8 + 8;

/// Environment variable overriding the default cache directory.
pub const CACHE_DIR_ENV: &str = "TAXOGLIMPSE_CACHE_DIR";
const DEFAULT_DIR: &str = "target/taxo-cache";

/// A directory of checksummed taxonomy snapshots keyed by construction
/// inputs.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SnapshotStore { dir: dir.into() }
    }

    /// The default cache directory: `$TAXOGLIMPSE_CACHE_DIR` if set,
    /// otherwise `target/taxo-cache` under the current directory.
    pub fn default_dir() -> PathBuf {
        match std::env::var_os(CACHE_DIR_ENV) {
            Some(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from(DEFAULT_DIR),
        }
    }

    /// A store rooted at [`SnapshotStore::default_dir`].
    pub fn open_default() -> Self {
        Self::new(Self::default_dir())
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Cache key for a generated taxonomy: everything that determines
    /// its bytes. `stream_version` names the generator's RNG stream
    /// discipline (bump it when the name streams change) and the codec
    /// version invalidates snapshots across binary-format revisions.
    pub fn key(label: &str, seed: u64, scale: f64, stream_version: u32) -> String {
        format!(
            "{}-s{seed:016x}-f{:016x}-g{stream_version}-c{CODEC_VERSION}",
            sanitize(label),
            scale.to_bits(),
        )
    }

    /// Path a given key maps to.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.bin", sanitize(key)))
    }

    /// Load the snapshot stored under `key`, or `None` if it is absent,
    /// truncated, corrupt, or structurally invalid. `None` always means
    /// "regenerate"; it is never an error.
    pub fn load(&self, key: &str) -> Option<Taxonomy> {
        let mut file = fs::File::open(self.path_for(key)).ok()?;
        let mut header = [0u8; HEADER_LEN];
        io::Read::read_exact(&mut file, &mut header).ok()?;
        if &header[..4] != MAGIC {
            return None;
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != SNAPSHOT_VERSION {
            return None;
        }
        let stored_sum = u64::from_le_bytes(
            header[6..14].try_into().expect("header slice is exactly 8 bytes"),
        );
        let stored_len = u64::from_le_bytes(
            header[14..22].try_into().expect("header slice is exactly 8 bytes"),
        );
        // The payload must be exactly the declared length — a shorter
        // file is truncation, a longer one trailing garbage — and
        // checking against the real file size up front means a corrupt
        // length can never request an allocation the file cannot back.
        let on_disk = file.metadata().ok()?.len();
        if on_disk.saturating_sub(HEADER_LEN as u64) != stored_len {
            return None;
        }

        // Stage the payload in two buffers — the structural prefix
        // ("head", through the offset table) and the name block — so the
        // v2 decoder can adopt the name-block buffer as the taxonomy's
        // name arena without moving its ~tens of MB again, and the
        // checksum streams over the pieces while they are still warm.
        let mut head = Vec::new();
        read_chunk(&mut file, &mut head, 10.min(stored_len))?;
        let is_v2 = head.len() == 10
            && &head[..4] == crate::binary::MAGIC
            && u16::from_le_bytes([head[4], head[5]]) == CODEC_VERSION;
        if !is_v2 {
            // Legacy v1 (or foreign) payload: slurp the remainder and
            // decode it contiguously; correctness over speed here.
            let remaining = stored_len - head.len() as u64;
            read_chunk(&mut file, &mut head, remaining)?;
            if checksum(&head) != stored_sum {
                return None;
            }
            return Taxonomy::from_binary_owned(head).ok();
        }
        let label_len =
            u32::from_le_bytes(head[6..10].try_into().expect("head holds 10 bytes")) as u64;
        let label_and_count = label_len.checked_add(8)?;
        if label_and_count > stored_len - head.len() as u64 {
            return None;
        }
        read_chunk(&mut file, &mut head, label_and_count)?;
        let n = u64::from_le_bytes(
            head[head.len() - 8..].try_into().expect("count field is 8 bytes"),
        );
        if n > u32::MAX as u64 {
            return None;
        }
        // Parents (4n) + name-block length (8) + offsets (4(n+1)).
        let tables = 4 * n + 8 + 4 * (n + 1);
        if tables > stored_len - head.len() as u64 {
            return None;
        }
        read_chunk(&mut file, &mut head, tables)?;
        let nb_off = head.len() - (n as usize + 1) * 4 - 8;
        let name_bytes = u64::from_le_bytes(
            head[nb_off..nb_off + 8].try_into().expect("length field is 8 bytes"),
        );
        if head.len() as u64 + name_bytes != stored_len {
            return None;
        }
        // Integrity before structure: the streamed checksum over the
        // pieces equals the one-shot checksum over the whole payload.
        // The name block is read and checksummed in cache-sized slices
        // so each slice is still warm when the checksum walks it.
        let mut sum = ChecksumStream::new();
        sum.update(&head);
        let mut names = Vec::new();
        names.reserve_exact(name_bytes as usize + 1);
        const SLICE: u64 = 8 << 20;
        let mut done = 0u64;
        // ASCII-ness is proven slice by slice alongside the checksum so
        // the decoder never has to rescan the (by then cold) name block.
        let mut names_ascii = true;
        while done < name_bytes {
            let step = (name_bytes - done).min(SLICE);
            read_chunk(&mut file, &mut names, step)?;
            let slice = &names[done as usize..];
            sum.update(slice);
            names_ascii &= slice.is_ascii();
            done += step;
        }
        if sum.finish() != stored_sum {
            return None;
        }
        crate::binary::from_binary_split(&head, names, Some(names_ascii)).ok()
    }

    /// Serialize `taxonomy` under `key`, atomically (temp file +
    /// rename). Returns the final path. The payload is streamed twice —
    /// once through the checksum for the header, once to disk — and
    /// never held in memory; on any error the temp file is removed.
    pub fn save(&self, key: &str, taxonomy: &Taxonomy) -> io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let mut sum = ChecksumStream::new();
        taxonomy.write_v2(&mut sum)?;
        let payload_len = sum.total;
        let payload_sum = sum.finish();

        let path = self.path_for(key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = write_envelope(&tmp, taxonomy, payload_sum, payload_len)
            .and_then(|()| fs::rename(&tmp, &path));
        match written {
            Ok(()) => Ok(path),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Load the snapshot under `key`, or generate it with `generate`
    /// and save it for next time. Save failures are reported to stderr
    /// but do not fail the call — a read-only cache degrades to
    /// regeneration, never to an error.
    pub fn load_or_generate(
        &self,
        key: &str,
        generate: impl FnOnce() -> Taxonomy,
    ) -> Taxonomy {
        if let Some(t) = self.load(key) {
            return t;
        }
        let t = generate();
        if let Err(e) = self.save(key, &t) {
            eprintln!("warning: could not save taxonomy snapshot {key}: {e}");
        }
        t
    }
}

/// Write the snapshot header and `taxonomy`'s payload to `path`.
fn write_envelope(path: &Path, taxonomy: &Taxonomy, sum: u64, len: u64) -> io::Result<()> {
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    out.write_all(MAGIC)?;
    out.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    out.write_all(&sum.to_le_bytes())?;
    out.write_all(&len.to_le_bytes())?;
    taxonomy.write_v2(&mut out)?;
    out.into_inner().map_err(io::IntoInnerError::into_error)?;
    Ok(())
}

/// Append exactly `len` bytes from `file` to `out`, or fail. The
/// reserve ahead of `read_to_end` lets it read straight into spare
/// capacity; `len` has always been validated against the real file size
/// by the caller, so the allocation is bounded by the file.
fn read_chunk(file: &mut fs::File, out: &mut Vec<u8>, len: u64) -> Option<()> {
    out.reserve(len as usize + 1);
    let got = io::Read::read_to_end(&mut io::Read::take(io::Read::by_ref(file), len), out).ok()?;
    (got as u64 == len).then_some(())
}

/// Keep keys filesystem-safe: alphanumerics plus `._-`, everything else
/// mapped to `_`.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect()
}

const CHECKSUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Streaming form of [`checksum`]: feed bytes in arbitrary pieces via
/// [`ChecksumStream::update`], then [`ChecksumStream::finish`]. The
/// result is identical to one-shot [`checksum`] over the concatenation,
/// which lets the snapshot loader verify integrity while the payload
/// streams in from disk instead of re-reading a 50+ MB buffer cold.
#[derive(Debug, Clone)]
pub struct ChecksumStream {
    lanes: [u64; 4],
    carry: [u8; 32],
    carry_len: usize,
    total: u64,
}

impl Default for ChecksumStream {
    fn default() -> Self {
        Self::new()
    }
}

impl ChecksumStream {
    /// A fresh stream (equivalent to `checksum(b"")` when finished).
    pub fn new() -> Self {
        ChecksumStream {
            lanes: [
                0x243F_6A88_85A3_08D3u64,
                0x1319_8A2E_0370_7344,
                0xA409_3822_299F_31D0,
                0x082E_FA98_EC4E_6C89,
            ],
            carry: [0u8; 32],
            carry_len: 0,
            total: 0,
        }
    }

    /// Absorb `bytes`. Chunk boundaries never affect the final value:
    /// partial 32-byte blocks are carried into the next update.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.carry_len > 0 {
            let need = (32 - self.carry_len).min(bytes.len());
            self.carry[self.carry_len..self.carry_len + need].copy_from_slice(&bytes[..need]);
            self.carry_len += need;
            bytes = &bytes[need..];
            if self.carry_len < 32 {
                return;
            }
            let block = self.carry;
            self.absorb(&block);
            self.carry_len = 0;
        }
        let mut chunks = bytes.chunks_exact(32);
        for chunk in &mut chunks {
            self.absorb(chunk.try_into().expect("chunks_exact yields 32 bytes"));
        }
        let rem = chunks.remainder();
        self.carry[..rem.len()].copy_from_slice(rem);
        self.carry_len = rem.len();
    }

    #[inline(always)]
    fn absorb(&mut self, block: &[u8; 32]) {
        for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
            *lane = (*lane ^ w).wrapping_mul(CHECKSUM_MUL).rotate_left(29);
        }
    }

    /// Fold the tail and lane state into the final checksum.
    pub fn finish(mut self) -> u64 {
        let mut tail = 0u64;
        for (i, &b) in self.carry[..self.carry_len].iter().enumerate() {
            tail ^= (b as u64) << ((i % 8) * 8);
            if i % 8 == 7 {
                self.lanes[0] =
                    (self.lanes[0] ^ tail).wrapping_mul(CHECKSUM_MUL).rotate_left(29);
                tail = 0;
            }
        }
        self.lanes[0] = (self.lanes[0] ^ tail).wrapping_mul(CHECKSUM_MUL).rotate_left(29);
        let mut h = self.total;
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(CHECKSUM_MUL).rotate_left(32);
        }
        h ^ (h >> 29)
    }
}

/// A checksum sink for streaming encoders such as
/// [`Taxonomy::write_v2`]; writes never fail.
impl io::Write for ChecksumStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Rolling checksum over `bytes`: four interleaved xor-multiply-rotate
/// lanes (for instruction-level parallelism on the 50+ MB NCBI
/// payload), folded together with the length at the end. Not
/// cryptographic — it guards against truncation and bit rot, not
/// adversaries; the structural validation in `from_binary` backstops it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stream = ChecksumStream::new();
    stream.update(bytes);
    stream.finish()
}

impl Taxonomy {
    /// A stable digest of this taxonomy's full content (label, names,
    /// structure): the snapshot checksum of its binary encoding. Two
    /// taxonomies with equal digests are byte-identical on the wire,
    /// which is what the parallel-generation equivalence tests compare.
    pub fn content_digest(&self) -> u64 {
        let mut sum = ChecksumStream::new();
        self.write_v2(&mut sum).expect("a checksum stream accepts every write");
        sum.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;

    fn sample(label: &str) -> Taxonomy {
        let mut b = TaxonomyBuilder::new(label);
        let r = b.add_root("Root");
        let a = b.add_child(r, "Alpha");
        b.add_child(a, "Beta");
        b.build().expect("sample taxonomy builds cleanly")
    }

    fn temp_store(tag: &str) -> SnapshotStore {
        let dir = std::env::temp_dir()
            .join(format!("taxo-snap-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SnapshotStore::new(dir)
    }

    #[test]
    fn round_trip_through_disk() {
        let store = temp_store("rt");
        let t = sample("snap");
        let key = SnapshotStore::key("snap", 42, 0.1, 1);
        assert!(store.load(&key).is_none(), "cold cache must miss");
        store.save(&key, &t).expect("save to fresh temp dir succeeds");
        let back = store.load(&key).expect("freshly saved snapshot loads");
        assert_eq!(back.content_digest(), t.content_digest());
        assert_eq!(back.label(), "snap");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_snapshot_misses() {
        let store = temp_store("corrupt");
        let t = sample("snap");
        let key = SnapshotStore::key("snap", 7, 0.5, 1);
        let path = store.save(&key, &t).expect("save to fresh temp dir succeeds");
        let mut bytes = fs::read(&path).expect("saved snapshot is readable");
        // Flip one payload byte: checksum must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("rewrite of snapshot succeeds");
        assert!(store.load(&key).is_none(), "corrupt payload must miss");
        // Truncation must miss too.
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("rewrite succeeds");
        assert!(store.load(&key).is_none(), "truncated snapshot must miss");
        // And an empty file.
        fs::write(&path, b"").expect("rewrite succeeds");
        assert!(store.load(&key).is_none(), "empty snapshot must miss");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_or_generate_populates_then_hits() {
        let store = temp_store("pop");
        let key = SnapshotStore::key("snap", 1, 1.0, 1);
        let mut generated = 0;
        let t1 = store.load_or_generate(&key, || {
            generated += 1;
            sample("snap")
        });
        let t2 = store.load_or_generate(&key, || {
            generated += 1;
            sample("snap")
        });
        assert_eq!(generated, 1, "second call must be served from disk");
        assert_eq!(t1.content_digest(), t2.content_digest());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn keys_separate_inputs() {
        let a = SnapshotStore::key("ncbi", 42, 1.0, 1);
        let b = SnapshotStore::key("ncbi", 43, 1.0, 1);
        let c = SnapshotStore::key("ncbi", 42, 0.5, 1);
        let d = SnapshotStore::key("ncbi", 42, 1.0, 2);
        let e = SnapshotStore::key("icd-10-cm", 42, 1.0, 1);
        let keys = [&a, &b, &c, &d, &e];
        for (i, x) in keys.iter().enumerate() {
            for y in &keys[i + 1..] {
                assert_ne!(x, y);
            }
        }
        // Keys are filesystem-safe even for hostile labels.
        let hostile = SnapshotStore::key("../../etc/passwd", 0, 0.1, 1);
        assert!(!hostile.contains('/') && !hostile.contains("..{"));
    }

    #[test]
    fn checksum_sensitivity() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 37 % 251) as u8).collect();
        let base = checksum(&data);
        for at in [0usize, 1, 7, 8, 31, 32, 33, 1000, 1023] {
            let mut tweaked = data.clone();
            tweaked[at] ^= 1;
            assert_ne!(checksum(&tweaked), base, "flip at {at} must change the sum");
        }
        // Length extension with zeros must change the sum too.
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(checksum(&longer), base);
        assert_ne!(checksum(b""), checksum(&[0u8]));
    }
}
