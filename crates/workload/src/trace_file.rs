//! Compact binary trace files: the `.events` format.
//!
//! A `.events` file is a versioned header followed by a flat stream of
//! `(key: u64, timestamp_us: u64)` pairs, both little-endian — the same
//! layout the delayed-hits measurement pipeline (tsunrise/delayed-hits)
//! uses, so real CDN traces convert with a plain `ingest` pass. The key
//! packs a [`crate::Request`]'s site in the high 32 bits and the object id
//! in the low 32 bits; foreign traces may use any 64-bit key, which replay
//! folds onto a scenario's catalog.
//!
//! Records move in blocks: [`write_events_file`] encodes 1 MiB of records
//! at a time and writes each block with one call, and [`EventsReader`]
//! reads through a fixed 1 MiB buffer, so a multi-gigabyte trace never has
//! more than one block resident; [`read_events_file`] decodes every whole
//! record of a block in one pass. Truncated or corrupt files surface as
//! contextful [`TraceFileError`]s — never panics — naming the byte offset
//! where decoding stopped.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

/// File magic: identifies a `.events` trace. 8 bytes, then a u32 version.
pub const EVENTS_MAGIC: &[u8; 8] = b"CDNEVTS\0";
/// Current format version. Readers reject anything newer.
pub const EVENTS_VERSION: u32 = 1;
/// Header length in bytes: magic + version + u64 event count.
pub const HEADER_LEN: usize = 8 + 4 + 8;
/// Bytes per encoded event: key + timestamp, both u64 LE.
pub const EVENT_LEN: usize = 16;

/// One trace record: a 64-bit object key and a microsecond timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Object identity. [`pack_key`] stores `(site << 32) | object` for
    /// synthetic exports; foreign traces may use any 64-bit value.
    pub key: u64,
    /// Event time in microseconds since the start of the trace.
    pub timestamp_us: u64,
}

/// Pack a `(site, object)` pair into the 64-bit key convention.
pub fn pack_key(site: u32, object: u32) -> u64 {
    (u64::from(site) << 32) | u64::from(object)
}

/// Inverse of [`pack_key`].
pub fn unpack_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Why a `.events` file could not be read. Every variant names enough
/// context (path-free — callers add the path) to locate the corruption.
#[derive(Debug, PartialEq, Eq)]
pub enum TraceFileError {
    /// Underlying I/O failure (open, read, write).
    Io(String),
    /// The first 8 bytes are not [`EVENTS_MAGIC`].
    BadMagic([u8; 8]),
    /// Header declares a version this reader does not understand.
    UnsupportedVersion(u32),
    /// File ended inside the header: got `got` of [`HEADER_LEN`] bytes.
    TruncatedHeader { got: usize },
    /// File ended mid-event: `offset` is where the partial record starts,
    /// `got` how many of its [`EVENT_LEN`] bytes were present.
    TruncatedEvent { offset: u64, got: usize },
    /// Header promised `declared` events but the stream held `found`.
    CountMismatch { declared: u64, found: u64 },
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::BadMagic(got) => write!(
                f,
                "bad magic {got:?} (expected {EVENTS_MAGIC:?}) — not a .events trace"
            ),
            Self::UnsupportedVersion(v) => write!(
                f,
                "unsupported .events version {v} (this reader understands <= {EVENTS_VERSION})"
            ),
            Self::TruncatedHeader { got } => write!(
                f,
                "truncated header: {got} of {HEADER_LEN} bytes — file cut off or not a .events trace"
            ),
            Self::TruncatedEvent { offset, got } => write!(
                f,
                "truncated event at byte offset {offset}: {got} of {EVENT_LEN} bytes — file cut off mid-record"
            ),
            Self::CountMismatch { declared, found } => write!(
                f,
                "header declares {declared} event(s) but the file holds {found} — trace corrupt or rewritten mid-stream"
            ),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// Records [`write_events`] encodes per block: 2^16 records, 1 MiB.
const WRITE_BLOCK_EVENTS: usize = 1 << 16;

/// Write `events` to `out` as a `.events` stream: the header, then the
/// records encoded `WRITE_BLOCK_EVENTS` at a time into one reused 1 MiB
/// block, each block passed to `out` with one `write_all`.
fn write_events<W: Write>(out: &mut W, events: &[TraceEvent]) -> io::Result<()> {
    let _prof = cdn_telemetry::profile::span("workload.encode");
    let mut header = [0u8; HEADER_LEN];
    header[..8].copy_from_slice(EVENTS_MAGIC);
    header[8..12].copy_from_slice(&EVENTS_VERSION.to_le_bytes());
    header[12..].copy_from_slice(&(events.len() as u64).to_le_bytes());
    out.write_all(&header)?;
    let mut block = vec![0u8; events.len().min(WRITE_BLOCK_EVENTS) * EVENT_LEN];
    for chunk in events.chunks(WRITE_BLOCK_EVENTS) {
        let bytes = &mut block[..chunk.len() * EVENT_LEN];
        for (record, e) in bytes.chunks_exact_mut(EVENT_LEN).zip(chunk) {
            record[..8].copy_from_slice(&e.key.to_le_bytes());
            record[8..].copy_from_slice(&e.timestamp_us.to_le_bytes());
        }
        out.write_all(bytes)?;
    }
    Ok(())
}

/// Encode `events` into the full file image (header + records): the bytes
/// [`write_events_file`] writes.
pub fn encode_events(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + events.len() * EVENT_LEN);
    write_events(&mut out, events).expect("writing to a Vec cannot fail");
    out
}

/// Decode a full in-memory file image. Convenience for tests and small
/// traces; large files should stream through [`EventsReader`].
pub fn decode_events(bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceFileError> {
    EventsReader::new(bytes)?.read_all(bytes.len() as u64)
}

/// Write `events` to `path` as a `.events` file, one 1 MiB block of
/// records per write rather than the whole file image in memory.
pub fn write_events_file(path: &Path, events: &[TraceEvent]) -> Result<(), TraceFileError> {
    write_events(&mut File::create(path)?, events)?;
    Ok(())
}

/// Open `path` as a streaming `.events` reader. The header is validated
/// eagerly, so a non-trace file fails here, not on the first event.
pub fn open_events_file(path: &Path) -> Result<EventsReader<BufReader<File>>, TraceFileError> {
    EventsReader::new(BufReader::new(File::open(path)?))
}

/// Read a whole `.events` file into memory, decoding each 1 MiB block of
/// whole records in one pass. The output is allocated once, for the
/// header's count or for what the file's length can hold, whichever is
/// less.
pub fn read_events_file(path: &Path) -> Result<Vec<TraceEvent>, TraceFileError> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    EventsReader::new(file)?.read_all(file_len)
}

/// How many bytes [`EventsReader`] asks the source for per refill: 1 MiB,
/// a whole number of records.
const CHUNK_BYTES: usize = 1 << 20;

/// Streaming `.events` decoder over any byte source.
///
/// Construction reads and validates the header; iteration yields
/// `Result<TraceEvent, TraceFileError>` so corruption mid-file is reported
/// at the record where it happens. At most `CHUNK_BYTES` plus one partial
/// record are ever buffered.
pub struct EventsReader<R: Read> {
    src: R,
    /// `CHUNK_BYTES` plus room for the partial record a refill carries
    /// over, allocated once.
    buf: Box<[u8]>,
    /// Next undecoded position in `buf`.
    pos: usize,
    /// End of the bytes read into `buf`.
    end: usize,
    /// Events the header promised.
    declared: u64,
    /// Events yielded so far.
    yielded: u64,
    /// Byte offset in the file of the next record to decode.
    offset: u64,
    /// Set after an error or clean end; iteration then stays `None`.
    done: bool,
}

impl<R: Read> EventsReader<R> {
    /// Wrap `src`, consuming and validating the header.
    pub fn new(mut src: R) -> Result<Self, TraceFileError> {
        let mut header = [0u8; HEADER_LEN];
        let got = read_up_to(&mut src, &mut header)?;
        if got < HEADER_LEN {
            // An empty or short prefix that *starts* like another file type
            // reads better as a magic error than a truncation.
            if got >= 8 && header[..8] != EVENTS_MAGIC[..] {
                let mut magic = [0u8; 8];
                magic.copy_from_slice(&header[..8]);
                return Err(TraceFileError::BadMagic(magic));
            }
            return Err(TraceFileError::TruncatedHeader { got });
        }
        if header[..8] != EVENTS_MAGIC[..] {
            let mut magic = [0u8; 8];
            magic.copy_from_slice(&header[..8]);
            return Err(TraceFileError::BadMagic(magic));
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if version == 0 || version > EVENTS_VERSION {
            return Err(TraceFileError::UnsupportedVersion(version));
        }
        let declared = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        Ok(Self {
            src,
            buf: vec![0; CHUNK_BYTES + EVENT_LEN].into_boxed_slice(),
            pos: 0,
            end: 0,
            declared,
            yielded: 0,
            offset: HEADER_LEN as u64,
            done: false,
        })
    }

    /// The event count the header declares.
    pub fn declared_len(&self) -> u64 {
        self.declared
    }

    /// Pull the next chunk from the source. The partial record left
    /// undecoded (fewer than [`EVENT_LEN`] bytes) moves to the front first.
    fn refill(&mut self) -> Result<(), TraceFileError> {
        let carry = self.end - self.pos;
        self.buf.copy_within(self.pos..self.end, 0);
        let got = read_up_to(&mut self.src, &mut self.buf[carry..carry + CHUNK_BYTES])?;
        self.pos = 0;
        self.end = carry + got;
        Ok(())
    }

    /// Decode every remaining event into one vector, allocated once for
    /// the header's count, but for no more events than `source_len` bytes
    /// (the whole source, header included) can hold, so a header that
    /// lies cannot force a huge allocation.
    ///
    /// The whole records already buffered, up to the header's count, are
    /// decoded in one pass; the iterator takes only the record at each
    /// buffer boundary, so it alone refills and reports every error and
    /// offset.
    fn read_all(mut self, source_len: u64) -> Result<Vec<TraceEvent>, TraceFileError> {
        let _prof = cdn_telemetry::profile::span("workload.decode");
        let room = source_len.saturating_sub(HEADER_LEN as u64) / EVENT_LEN as u64;
        let mut events = Vec::with_capacity(self.declared.min(room) as usize);
        loop {
            let whole = ((self.end - self.pos) / EVENT_LEN) as u64;
            let take = whole.min(self.declared.saturating_sub(self.yielded)) as usize;
            let bytes = &self.buf[self.pos..self.pos + take * EVENT_LEN];
            events.extend(bytes.chunks_exact(EVENT_LEN).map(decode_record));
            self.pos += take * EVENT_LEN;
            self.offset += (take * EVENT_LEN) as u64;
            self.yielded += take as u64;
            match self.next() {
                Some(event) => events.push(event?),
                None => return Ok(events),
            }
        }
    }
}

impl<R: Read> Iterator for EventsReader<R> {
    type Item = Result<TraceEvent, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.end - self.pos < EVENT_LEN {
            if let Err(e) = self.refill() {
                self.done = true;
                return Some(Err(e));
            }
            let rest = self.end - self.pos;
            if rest == 0 {
                self.done = true;
                if self.yielded != self.declared {
                    return Some(Err(TraceFileError::CountMismatch {
                        declared: self.declared,
                        found: self.yielded,
                    }));
                }
                return None;
            }
            if rest < EVENT_LEN {
                self.done = true;
                return Some(Err(TraceFileError::TruncatedEvent {
                    offset: self.offset,
                    got: rest,
                }));
            }
        }
        let event = decode_record(&self.buf[self.pos..self.pos + EVENT_LEN]);
        self.pos += EVENT_LEN;
        self.offset += EVENT_LEN as u64;
        self.yielded += 1;
        if self.yielded > self.declared {
            self.done = true;
            // More records than the header promised: the count field lies.
            return Some(Err(TraceFileError::CountMismatch {
                declared: self.declared,
                found: self.yielded,
            }));
        }
        Some(Ok(event))
    }
}

/// Decode one [`EVENT_LEN`]-byte record.
fn decode_record(record: &[u8]) -> TraceEvent {
    let (key, timestamp_us) = record.split_at(8);
    TraceEvent {
        key: u64::from_le_bytes(key.try_into().expect("8 key bytes")),
        timestamp_us: u64::from_le_bytes(timestamp_us.try_into().expect("8 timestamp bytes")),
    }
}

/// `read` until `buf` is full or EOF; returns bytes read. Unlike
/// `read_exact` this distinguishes "short" from "error".
fn read_up_to<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<usize, TraceFileError> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: u64, ts: u64) -> TraceEvent {
        TraceEvent {
            key,
            timestamp_us: ts,
        }
    }

    #[test]
    fn round_trip_small() {
        let events = vec![ev(1, 10), ev(pack_key(3, 7), 20), ev(u64::MAX, u64::MAX)];
        let bytes = encode_events(&events);
        assert_eq!(bytes.len(), HEADER_LEN + 3 * EVENT_LEN);
        let back = decode_events(&bytes).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = encode_events(&[]);
        assert_eq!(decode_events(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn key_packing_round_trips() {
        for (site, object) in [(0, 0), (3, 7), (u32::MAX, 0), (0, u32::MAX)] {
            assert_eq!(unpack_key(pack_key(site, object)), (site, object));
        }
    }

    #[test]
    fn bad_magic_is_an_error_not_a_panic() {
        let mut bytes = encode_events(&[ev(1, 1)]);
        bytes[0] = b'X';
        match decode_events(&bytes) {
            Err(TraceFileError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        // A short non-trace prefix also reads as bad magic.
        let junk = b"not an events file";
        assert!(matches!(
            decode_events(&junk[..]),
            Err(TraceFileError::BadMagic(_))
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = encode_events(&[ev(1, 1)]);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            decode_events(&bytes),
            Err(TraceFileError::UnsupportedVersion(99))
        );
        bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_events(&bytes),
            Err(TraceFileError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn truncated_header_reported_with_length() {
        let bytes = encode_events(&[ev(1, 1)]);
        assert_eq!(
            decode_events(&bytes[..10]),
            Err(TraceFileError::TruncatedHeader { got: 10 })
        );
        assert_eq!(
            decode_events(&[]),
            Err(TraceFileError::TruncatedHeader { got: 0 })
        );
    }

    #[test]
    fn truncated_event_reports_offset() {
        let events = vec![ev(1, 10), ev(2, 20)];
        let bytes = encode_events(&events);
        // Cut 5 bytes into the second record.
        let cut = HEADER_LEN + EVENT_LEN + 5;
        let mut r = EventsReader::new(&bytes[..cut]).unwrap();
        assert_eq!(r.next().unwrap().unwrap(), events[0]);
        match r.next().unwrap() {
            Err(TraceFileError::TruncatedEvent { offset, got }) => {
                assert_eq!(offset, (HEADER_LEN + EVENT_LEN) as u64);
                assert_eq!(got, 5);
            }
            other => panic!("expected TruncatedEvent, got {other:?}"),
        }
        assert!(r.next().is_none(), "reader stops after an error");
    }

    #[test]
    fn count_mismatch_detected_both_ways() {
        let mut bytes = encode_events(&[ev(1, 10), ev(2, 20)]);
        // Header claims 3 events, stream holds 2.
        bytes[12..20].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(
            decode_events(&bytes),
            Err(TraceFileError::CountMismatch {
                declared: 3,
                found: 2
            })
        );
        // Header claims 1 event, stream holds 2.
        bytes[12..20].copy_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            decode_events(&bytes),
            Err(TraceFileError::CountMismatch {
                declared: 1,
                found: 2
            })
        );
    }

    #[test]
    fn streaming_reader_crosses_chunk_boundaries() {
        // Enough events that a refill happens mid-stream.
        let n = (CHUNK_BYTES / EVENT_LEN + 1_000) as u64;
        let events: Vec<TraceEvent> = (0..n).map(|i| ev(i, i * 3 + 1)).collect();
        let bytes = encode_events(&events);
        // A reader that returns at most 7 bytes per read() call, so every
        // refill is assembled from reads that end mid-record.
        struct Dribble<'a>(&'a [u8]);
        impl Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let n = self.0.len().min(buf.len()).min(7);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let back: Vec<TraceEvent> = EventsReader::new(Dribble(&bytes))
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("cdn-trace-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.events");
        let events = vec![ev(5, 1), ev(6, 2), ev(5, 9)];
        write_events_file(&path, &events).unwrap();
        let r = open_events_file(&path).unwrap();
        assert_eq!(r.declared_len(), 3);
        assert_eq!(read_events_file(&path).unwrap(), events);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_whole_file_decodes_into_one_exact_allocation() {
        // Several refills, so a record straddles a chunk boundary.
        let events: Vec<TraceEvent> = (0..10_000).map(|i| ev(i, i * 3 + 1)).collect();
        let path = std::env::temp_dir().join("cdn-trace-file-exact.events");
        write_events_file(&path, &events).unwrap();
        let back = read_events_file(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, events);
        assert_eq!(back.capacity(), events.len(), "the output regrew");
        let bytes = encode_events(&events);
        assert_eq!(decode_events(&bytes).unwrap().capacity(), events.len());
    }

    #[test]
    fn a_lying_header_cannot_force_a_huge_allocation() {
        let mut bytes = encode_events(&[ev(1, 10), ev(2, 20)]);
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            decode_events(&bytes),
            Err(TraceFileError::CountMismatch {
                declared: u64::MAX,
                found: 2
            })
        );
        let path = std::env::temp_dir().join("cdn-trace-file-lying.events");
        std::fs::write(&path, &bytes).unwrap();
        let read = read_events_file(&path);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            read,
            Err(TraceFileError::CountMismatch { found: 2, .. })
        ));
    }

    #[test]
    fn block_io_keeps_the_bytes_errors_and_offsets_across_blocks() {
        // More than two write blocks and two read chunks, and a record
        // count that is a multiple of neither.
        assert_eq!(WRITE_BLOCK_EVENTS * EVENT_LEN, CHUNK_BYTES);
        let n = 2 * WRITE_BLOCK_EVENTS + 777;
        let events: Vec<TraceEvent> = (0..n as u64)
            .map(|i| ev(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i / 3))
            .collect();
        let bytes = encode_events(&events);
        assert_eq!(bytes.len(), HEADER_LEN + n * EVENT_LEN);
        let path = std::env::temp_dir().join("cdn-trace-file-blocks.events");
        write_events_file(&path, &events).unwrap();
        let written = std::fs::read(&path).unwrap();
        let read = read_events_file(&path);
        assert!(written == bytes, "the file differs from encode_events");
        assert_eq!(read, decode_events(&bytes));
        assert_eq!(read.unwrap(), events);

        // Each damaged image gives the same error from the file and from
        // memory.
        let both = |image: &[u8]| {
            std::fs::write(&path, image).unwrap();
            let from_file = read_events_file(&path);
            let from_memory = decode_events(image);
            assert_eq!(from_file, from_memory);
            from_memory
        };
        let boundary = HEADER_LEN + CHUNK_BYTES;
        let whole = (CHUNK_BYTES / EVENT_LEN) as u64;
        // Cut exactly at the first chunk's end: whole records, too few.
        assert_eq!(
            both(&bytes[..boundary]),
            Err(TraceFileError::CountMismatch {
                declared: n as u64,
                found: whole
            })
        );
        // Cut inside the last record of the first chunk, and inside the
        // first record of the second.
        assert_eq!(
            both(&bytes[..boundary - 5]),
            Err(TraceFileError::TruncatedEvent {
                offset: (boundary - EVENT_LEN) as u64,
                got: EVENT_LEN - 5
            })
        );
        assert_eq!(
            both(&bytes[..boundary + 5]),
            Err(TraceFileError::TruncatedEvent {
                offset: boundary as u64,
                got: 5
            })
        );
        // A header count one below and one above the records, and one far
        // below them, where a read must stop at the first surplus record.
        for declared in [3, n as u64 - 1, n as u64 + 1] {
            let mut lying = bytes.clone();
            lying[12..20].copy_from_slice(&declared.to_le_bytes());
            let found = (n as u64).min(declared + 1);
            assert_eq!(
                both(&lying),
                Err(TraceFileError::CountMismatch { declared, found })
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_events_file(Path::new("/nonexistent/trace.events")).unwrap_err();
        assert!(matches!(err, TraceFileError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("I/O"), "{err}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_events() -> impl proptest::strategy::Strategy<Value = Vec<TraceEvent>> {
            proptest::collection::vec((any::<u64>(), any::<u64>()), 0..300).prop_map(|pairs| {
                pairs
                    .into_iter()
                    .map(|(key, timestamp_us)| TraceEvent { key, timestamp_us })
                    .collect()
            })
        }

        proptest! {
            /// Arbitrary event vectors survive encode → decode byte-exactly,
            /// and the encoding length is the closed-form header + records.
            #[test]
            fn encode_decode_round_trips(events in arb_events()) {
                let bytes = encode_events(&events);
                prop_assert_eq!(bytes.len(), HEADER_LEN + events.len() * EVENT_LEN);
                let back = decode_events(&bytes).unwrap();
                prop_assert_eq!(back, events);
            }

            /// Every proper prefix of a valid file decodes to an error —
            /// never a panic, never a silently short success.
            #[test]
            fn any_truncation_is_an_error(events in arb_events(), frac in 0.0f64..1.0) {
                let bytes = encode_events(&events);
                let cut = ((bytes.len() as f64) * frac) as usize;
                if cut < bytes.len() {
                    prop_assert!(decode_events(&bytes[..cut]).is_err());
                }
            }

            /// Corrupting any single header byte is caught by one of the
            /// structured checks (magic, version, or count).
            #[test]
            fn header_corruption_is_detected(events in arb_events(), at in 0usize..HEADER_LEN) {
                let mut bytes = encode_events(&events);
                bytes[at] ^= 0xFF;
                prop_assert!(decode_events(&bytes).is_err());
            }
        }
    }
}
