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
//! Reading is streaming and allocation-bounded: [`EventsReader`] decodes
//! through a fixed 64 KiB buffer, so a multi-gigabyte trace never has more
//! than one chunk resident. Truncated or corrupt files surface as
//! contextful [`TraceFileError`]s — never panics — naming the byte offset
//! where decoding stopped.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
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

/// Write `events` to `out` as a `.events` stream: header, then records.
fn write_events<W: Write>(out: &mut W, events: &[TraceEvent]) -> io::Result<()> {
    out.write_all(EVENTS_MAGIC)?;
    out.write_all(&EVENTS_VERSION.to_le_bytes())?;
    out.write_all(&(events.len() as u64).to_le_bytes())?;
    for e in events {
        out.write_all(&e.key.to_le_bytes())?;
        out.write_all(&e.timestamp_us.to_le_bytes())?;
    }
    Ok(())
}

/// Encode `events` into the full file image (header + records).
pub fn encode_events(events: &[TraceEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + events.len() * EVENT_LEN);
    write_events(&mut out, events).expect("writing to a Vec cannot fail");
    out
}

/// Decode a full in-memory file image. Convenience for tests and small
/// traces; large files should stream through [`EventsReader`].
pub fn decode_events(bytes: &[u8]) -> Result<Vec<TraceEvent>, TraceFileError> {
    EventsReader::new(bytes)?.collect()
}

/// Write `events` to `path` as a `.events` file, streaming the records
/// through a buffer rather than building the file image in memory.
pub fn write_events_file(path: &Path, events: &[TraceEvent]) -> Result<(), TraceFileError> {
    let mut f = BufWriter::new(File::create(path)?);
    write_events(&mut f, events)?;
    f.flush()?;
    Ok(())
}

/// Open `path` as a streaming `.events` reader. The header is validated
/// eagerly, so a non-trace file fails here, not on the first event.
pub fn open_events_file(path: &Path) -> Result<EventsReader<BufReader<File>>, TraceFileError> {
    EventsReader::new(BufReader::new(File::open(path)?))
}

/// Read a whole `.events` file into memory (streaming decode underneath).
pub fn read_events_file(path: &Path) -> Result<Vec<TraceEvent>, TraceFileError> {
    open_events_file(path)?.collect()
}

/// How many bytes [`EventsReader`] asks the source for per refill.
const CHUNK_BYTES: usize = 64 * 1024;

/// Streaming `.events` decoder over any byte source.
///
/// Construction reads and validates the header; iteration yields
/// `Result<TraceEvent, TraceFileError>` so corruption mid-file is reported
/// at the record where it happens. At most `CHUNK_BYTES` plus one partial
/// record are ever buffered.
pub struct EventsReader<R: Read> {
    src: R,
    /// Undecoded bytes carried between refills (always < [`EVENT_LEN`]).
    carry: Vec<u8>,
    buf: Vec<u8>,
    /// Next undecoded position in `buf`.
    pos: usize,
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
            carry: Vec::new(),
            buf: Vec::new(),
            pos: 0,
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

    /// Pull the next chunk from the source, keeping any partial record.
    fn refill(&mut self) -> Result<usize, TraceFileError> {
        self.carry.clear();
        self.carry.extend_from_slice(&self.buf[self.pos..]);
        self.buf.clear();
        self.buf.resize(self.carry.len() + CHUNK_BYTES, 0);
        self.buf[..self.carry.len()].copy_from_slice(&self.carry);
        let got = read_up_to(&mut self.src, &mut self.buf[self.carry.len()..])?;
        self.buf.truncate(self.carry.len() + got);
        self.pos = 0;
        Ok(got)
    }
}

impl<R: Read> Iterator for EventsReader<R> {
    type Item = Result<TraceEvent, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.buf.len() - self.pos < EVENT_LEN {
            match self.refill() {
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
            let rest = self.buf.len() - self.pos;
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
        let at = self.pos;
        let key = u64::from_le_bytes(self.buf[at..at + 8].try_into().expect("8 bytes"));
        let timestamp_us =
            u64::from_le_bytes(self.buf[at + 8..at + 16].try_into().expect("8 bytes"));
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
        Some(Ok(TraceEvent { key, timestamp_us }))
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
        // Enough events that the 64 KiB refill happens mid-stream, with a
        // record straddling the boundary (16 | 65536 so none straddles —
        // force it by prepending an odd carry via a 1-byte reader).
        let events: Vec<TraceEvent> = (0..10_000).map(|i| ev(i, i * 3 + 1)).collect();
        let bytes = encode_events(&events);
        // A reader that returns at most 7 bytes per read() call exercises
        // carry handling on every boundary.
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
