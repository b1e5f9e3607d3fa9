//! Where results *live*: the durable on-disk cell cache and the one
//! atomic write every durable file in the workspace goes through.
//!
//! A cell's result is a record at [`cache_entry_path`], keyed by
//! [`Cell::key`](crate::matrix::Cell::key): a CRC'd summary section
//! holding the cell's one-cell [`CampaignAggregates`] partial, then the
//! CRC-sealed [`RunMetrics`] body (the frame is `core::codec`'s,
//! [`seal_record`](crate::codec::seal_record)). `load` serves a hit
//! from the summary alone, or from both sections when the caller keeps
//! the metrics; `load_body` reads a body later; `store` writes a
//! record through [`write_atomic`]. The records are all the state a
//! campaign leaves behind: resuming a killed campaign is hitting them.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{self, ByteWriter, RecordHead, ENVELOPE_HEADER};
use crate::metrics::RunMetrics;
use crate::summary::{CampaignAggregates, AGGREGATES_VERSION};

/// Sharded on-disk location of one cache entry:
/// `<dir>/<xx>/<key:016x>.rpav`, where `xx` is the key's top byte in hex —
/// a 256-way fan-out so million-entry campaigns never pile every record
/// into one directory.
pub fn cache_entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{:02x}", (key >> 56) as u8))
        .join(format!("{key:016x}.rpav"))
}

/// A cache file that exists but fails a section's frame or CRC, or the
/// structural decode; [`load`] has already moved it out of the way.
pub(crate) struct CorruptRecord;

/// A served record: the cell's stored one-cell aggregate partial, and its
/// decoded metrics when [`load`] was asked for the body.
pub(crate) struct Hit {
    pub summary: CampaignAggregates,
    pub metrics: Option<RunMetrics>,
}

/// Serve one cache record through the worker's recycled buffer.
///
/// The record's summary section is always read, its CRC verified and its
/// partial decoded. With `with_body` the whole file is read, and the body
/// verified and decoded too; without, only the body's header is, and the
/// file's length must equal what both headers announce — truncation is
/// caught, a flipped bit in the unread body is not.
///
/// A miss (`Ok(None)`) is one failed `open`, or a record with no current
/// summary — a body-only record written before records carried one, or a
/// summary led by another [`AGGREGATES_VERSION`]: the caller simulates
/// the cell again and overwrites it. A corrupt file is *quarantined*:
/// moved to `<dir>/quarantine/` (deleted if the move fails) and treated
/// as a miss by the caller, so one corrupt file costs one re-simulation,
/// never the run.
pub(crate) fn load(
    dir: &Path,
    key: u64,
    with_body: bool,
    record: &mut Vec<u8>,
) -> Result<Option<Hit>, CorruptRecord> {
    let path = cache_entry_path(dir, key);
    let read = read(&path, with_body, record);
    if read.is_err() {
        quarantine(dir, key, &path);
    }
    read
}

/// [`load`] short of the quarantine.
fn read(path: &Path, with_body: bool, record: &mut Vec<u8>) -> Result<Option<Hit>, CorruptRecord> {
    record.clear();
    let Ok(mut file) = std::fs::File::open(path) else {
        return Ok(None);
    };
    let Ok(len) = file.metadata().map(|m| m.len()) else {
        return Ok(None);
    };
    if len < ENVELOPE_HEADER as u64 {
        return Err(CorruptRecord);
    }
    let mut head = [0; ENVELOPE_HEADER];
    if file.read_exact(&mut head).is_err() {
        return Ok(None);
    }
    let prefix = match codec::record_head(&head) {
        None => return Err(CorruptRecord),
        Some(RecordHead::BodyOnly) => return Ok(None),
        Some(RecordHead::Summary { prefix }) if prefix > len => return Err(CorruptRecord),
        Some(RecordHead::Summary { prefix }) => prefix,
    };
    // Grow the recycled buffer to exactly what is read: `read_to_end`
    // alone doubles it whenever a record outgrows it, so it would settle
    // at twice the largest record seen. A size no allocation can hold is
    // a failed read (a miss), not an abort.
    let want = if with_body { len } else { prefix };
    let filled = usize::try_from(want)
        .map_err(std::io::Error::other)
        .and_then(|want| {
            record
                .try_reserve_exact(want)
                .map_err(std::io::Error::other)?;
            record.extend_from_slice(&head);
            file.take((want - head.len()) as u64).read_to_end(record)?;
            Ok(record.len() == want)
        });
    if !matches!(filled, Ok(true)) {
        return Ok(None);
    }
    let summary = codec::unseal_summary(&record[..prefix as usize], len).ok_or(CorruptRecord)?;
    if summary.get(..8) != Some(&AGGREGATES_VERSION.to_le_bytes()) {
        return Ok(None);
    }
    let summary = CampaignAggregates::from_bytes(summary)
        .filter(|partial| partial.cells == 1 && partial.failed == 0)
        .ok_or(CorruptRecord)?;
    let metrics = if with_body {
        Some(RunMetrics::from_cache_bytes(record).ok_or(CorruptRecord)?)
    } else {
        None
    };
    Ok(Some(Hit { summary, metrics }))
}

/// Read, verify and decode the body of the record at `key` — a hit whose
/// [`load`] skipped it. A record that fails is quarantined; `None` means
/// the caller must recompute the metrics.
pub(crate) fn load_body(dir: &Path, key: u64) -> Option<RunMetrics> {
    let path = cache_entry_path(dir, key);
    let bytes = std::fs::read(&path).ok()?;
    let metrics = RunMetrics::from_cache_bytes(&bytes);
    if metrics.is_none() {
        quarantine(dir, key, &path);
    }
    metrics
}

/// Move a corrupt record to `<dir>/quarantine/`, or delete it if that
/// fails, and say so on stderr.
fn quarantine(dir: &Path, key: u64, path: &Path) {
    let qdir = dir.join("quarantine");
    let moved = std::fs::create_dir_all(&qdir).is_ok()
        && std::fs::rename(path, qdir.join(format!("{key:016x}.rpav"))).is_ok();
    if !moved {
        let _ = std::fs::remove_file(path);
    }
    eprintln!(
        "rpav: quarantined corrupt cache file {} ({})",
        path.display(),
        if moved { "moved" } else { "deleted" }
    );
}

/// Durably store one cache record — `summary`, the cell's one-cell
/// partial, then `metrics` — into its prefix shard ([`write_atomic`]). A
/// failure (full disk, unwritable directory) costs the cache entry, not
/// the run: the caller counts it in
/// [`EngineReport::store_failed`](crate::exec::EngineReport::store_failed).
pub(crate) fn store(
    dir: &Path,
    key: u64,
    summary: &CampaignAggregates,
    metrics: &RunMetrics,
    record: &mut Vec<u8>,
) -> std::io::Result<()> {
    let path = cache_entry_path(dir, key);
    std::fs::create_dir_all(path.parent().expect("cache entries live in a shard dir"))?;
    // Encode both sections into the worker's recycled buffer and stream
    // the framed record straight to the file — no per-cell allocation.
    let mut w = ByteWriter::with_buf(std::mem::take(record));
    summary.write_into(&mut w);
    let split = w.len();
    metrics.write_into(&mut w);
    *record = w.into_bytes();
    let (summary, body) = record.split_at(split);
    write_atomic(&path, |f| codec::seal_record_to(summary, body, f))
}

/// Durably replace `path` with what `write` puts into a fresh file: the
/// bytes go to a `.tmp` sibling named for this process and this call
/// (concurrent writers — threads or processes — never share one), are
/// `fsync`'d, and the tmp file is renamed over `path` — a kill at any
/// instant leaves the old file or the complete new one, never a hybrid.
/// The parent directory is then `fsync`'d too, so the rename itself
/// survives a power cut: once this returns `Ok`, the new file is durable.
/// On any failure before the rename the tmp file is removed and the error
/// returned; `path` is untouched. A failed directory sync is the call's
/// error too, with `path` already replaced.
pub fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let mut tmp = std::ffi::OsString::with_capacity(path.as_os_str().len() + 32);
    tmp.push(path);
    write!(tmp, ".{}.{call}.tmp", std::process::id()).expect("OsString writes cannot fail");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        write(&mut f)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(parent)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rpav-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn leftover_tmps(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count()
    }

    #[test]
    fn write_atomic_replaces_the_target_or_leaves_everything_as_it_was() {
        let dir = fresh_dir("atomic");
        let file = dir.join("record.json");
        write_atomic(&file, |f| f.write_all(b"old")).unwrap();
        write_atomic(&file, |f| f.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&file).unwrap(), b"new");
        assert_eq!(leftover_tmps(&dir), 0);

        // A failing writer: the target keeps its old bytes.
        let failed = write_atomic(&file, |f| {
            f.write_all(b"partial")?;
            Err(std::io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&file).unwrap(), b"new");
        assert_eq!(leftover_tmps(&dir), 0);

        // A destination that is an existing directory: the rename fails,
        // the directory and its contents stay, no tmp file survives.
        let target = dir.join("occupied");
        std::fs::create_dir(&target).unwrap();
        std::fs::write(target.join("inside"), b"kept").unwrap();
        assert!(write_atomic(&target, |f| f.write_all(b"bytes")).is_err());
        assert!(target.is_dir());
        assert_eq!(std::fs::read(target.join("inside")).unwrap(), b"kept");
        assert_eq!(std::fs::read_dir(&target).unwrap().count(), 1);
        assert_eq!(leftover_tmps(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        // Racing writers of one path — two identical `POST /campaigns`,
        // two engines over one cache — each get their own tmp file: every
        // call succeeds, a reader only ever sees one writer's whole
        // payload, and no tmp file is left behind.
        const WRITERS: usize = 4;
        const ROUNDS: usize = 100;
        const LEN: usize = 4096;
        let dir = fresh_dir("race");
        let file = dir.join("spec.json");
        write_atomic(&file, |f| f.write_all(&[0; LEN])).unwrap();
        let whole = |bytes: &[u8]| bytes.len() == LEN && bytes.iter().all(|&b| b == bytes[0]);
        // Every thread starts writing (or reading) at once.
        let start = std::sync::Barrier::new(WRITERS + 1);
        std::thread::scope(|s| {
            let writers: Vec<_> = (1..=WRITERS as u8)
                .map(|id| {
                    let (file, start) = (&file, &start);
                    s.spawn(move || {
                        start.wait();
                        (0..ROUNDS)
                            .filter(|_| write_atomic(file, |f| f.write_all(&[id; LEN])).is_err())
                            .count()
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    let bytes = std::fs::read(&file).unwrap();
                    assert!(whole(&bytes), "a reader saw a torn or mixed file");
                }
            });
            let failed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
            reader.join().unwrap();
            assert_eq!(failed, 0, "{failed} of {} writes failed", WRITERS * ROUNDS);
        });
        assert!(whole(&std::fs::read(&file).unwrap()));
        assert_eq!(leftover_tmps(&dir), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
