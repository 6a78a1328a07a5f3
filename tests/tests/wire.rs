//! Codec robustness: the wire protocol must never panic or hang on
//! hostile bytes, and encode/decode must be an exact round trip for
//! every protocol shape. Framing-level edge cases (truncation across
//! syscall boundaries, CRC corruption, over-cap lengths) are covered
//! here against the public API; `serve::wire` has unit tests for the
//! header fields themselves.

use proptest::prelude::*;

use coupling::tasks::{Task, TaskFilter, TaskKind, TaskStatus, TaskStatusKind};
use coupling::{MixedStrategy, ResultOrigin};
use oodb::Oid;
use serve::wire::{
    decode_fault, decode_request, decode_response, encode_request, encode_response, read_frame,
    write_frame, Frame, FrameKind, WireError, MAX_FRAME_LEN,
};
use serve::{Request, Response};

/// A reader that hands out one byte per `read` call: every multi-byte
/// field crosses a syscall boundary.
struct OneByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl std::io::Read for OneByteReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.bytes.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.bytes[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

#[test]
fn frames_survive_single_byte_reads() {
    let req = Request::IrsQuery {
        collection: "collPara".into(),
        query: "#and(telnet www)".into(),
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, FrameKind::Request, &encode_request(&req)).unwrap();
    let mut r = OneByteReader {
        bytes: &buf,
        pos: 0,
    };
    let frame = read_frame(&mut r).unwrap().expect("one frame");
    assert_eq!(frame.kind, FrameKind::Request);
    assert_eq!(decode_request(&frame.payload).unwrap(), req);
    assert!(read_frame(&mut r).unwrap().is_none(), "then a clean close");
}

#[test]
fn every_truncation_point_fails_cleanly() {
    let req = Request::EnqueueTask {
        kind: TaskKind::UpdateText {
            oid: Oid(9),
            text: "replacement text".into(),
            collections: vec!["collPara".into(), "collDoc".into()],
        },
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, FrameKind::Request, &encode_request(&req)).unwrap();
    for cut in 1..buf.len() {
        match read_frame(&mut &buf[..cut]) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}")
            }
            other => panic!("cut at {cut}: expected UnexpectedEof, got {other:?}"),
        }
    }
}

#[test]
fn oversize_frames_are_refused_on_both_sides() {
    // Writing a payload over the cap is refused locally…
    let huge = vec![0u8; MAX_FRAME_LEN as usize + 1];
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, FrameKind::Request, &huge),
        Err(WireError::Oversize(_))
    ));
    // …and a forged over-cap header is refused before the payload, so
    // a hostile peer cannot make us allocate gigabytes.
    let mut buf = Vec::new();
    write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
    buf[6..10].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    assert!(matches!(
        read_frame(&mut buf.as_slice()),
        Err(WireError::Oversize(_))
    ));
}

fn strategy_strategy() -> BoxedStrategy<MixedStrategy> {
    prop_oneof![
        Just(MixedStrategy::Independent),
        Just(MixedStrategy::IrsFirst)
    ]
    .boxed()
}

fn origin_strategy() -> BoxedStrategy<ResultOrigin> {
    prop_oneof![
        Just(ResultOrigin::Fresh),
        Just(ResultOrigin::Buffered),
        Just(ResultOrigin::Stale)
    ]
    .boxed()
}

fn task_kind_strategy() -> BoxedStrategy<TaskKind> {
    let name = || "\\PC{0,20}";
    prop_oneof![
        (name(), name()).prop_map(|(collection, spec_query)| TaskKind::IndexObjects {
            collection,
            spec_query,
        }),
        (
            any::<u64>(),
            "\\PC{0,40}",
            prop::collection::vec("\\PC{0,12}".boxed(), 0..4)
        )
            .prop_map(|(oid, text, collections)| TaskKind::UpdateText {
                oid: Oid(oid),
                text,
                collections,
            }),
        name().prop_map(|collection| TaskKind::Flush { collection }),
    ]
    .boxed()
}

fn task_strategy() -> BoxedStrategy<Task> {
    let status = prop_oneof![
        Just(TaskStatus::Enqueued),
        Just(TaskStatus::Processing),
        Just(TaskStatus::Succeeded),
        "\\PC{0,30}".prop_map(|error| TaskStatus::Failed { error }),
    ];
    (
        any::<u64>(),
        task_kind_strategy(),
        status,
        any::<u64>(),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(|(id, kind, status, enqueued_at, (batched, batch))| Task {
            id,
            kind,
            status,
            enqueued_at,
            batch_id: batched.then_some(batch),
        })
        .boxed()
}

fn task_filter_strategy() -> BoxedStrategy<TaskFilter> {
    let status = prop_oneof![
        Just(TaskStatusKind::Enqueued),
        Just(TaskStatusKind::Processing),
        Just(TaskStatusKind::Succeeded),
        Just(TaskStatusKind::Failed),
    ];
    ((any::<bool>(), status), (any::<bool>(), "\\PC{0,20}"))
        .prop_map(|((by_status, status), (by_coll, collection))| TaskFilter {
            status: by_status.then_some(status),
            collection: by_coll.then_some(collection),
        })
        .boxed()
}

fn request_strategy() -> BoxedStrategy<Request> {
    let name = || "\\PC{0,20}";
    prop_oneof![
        (name(), name()).prop_map(|(collection, query)| Request::IrsQuery { collection, query }),
        (name(), name(), name(), 0.0..1.0f64, strategy_strategy()).prop_map(
            |(collection, class, irs_query, threshold, strategy)| Request::MixedQuery {
                collection,
                class,
                irs_query,
                threshold,
                strategy,
            }
        ),
        (name(), name(), any::<u64>()).prop_map(|(collection, query, oid)| {
            Request::GetIrsValue {
                collection,
                query,
                oid: Oid(oid),
            }
        }),
        task_kind_strategy().prop_map(|kind| Request::EnqueueTask { kind }),
        any::<u64>().prop_map(|id| Request::TaskStatus { id }),
        task_filter_strategy().prop_map(|filter| Request::ListTasks { filter }),
    ]
    .boxed()
}

fn response_strategy() -> BoxedStrategy<Response> {
    prop_oneof![
        (
            prop::collection::vec((any::<u64>(), 0.0..1.0f64).boxed(), 0..8),
            origin_strategy()
        )
            .prop_map(|(raw, origin)| Response::IrsResult {
                hits: raw.into_iter().map(|(o, v)| (Oid(o), v)).collect(),
                origin,
            }),
        (
            prop::collection::vec(any::<u64>().boxed(), 0..8),
            strategy_strategy(),
            origin_strategy()
        )
            .prop_map(|(oids, strategy, origin)| Response::Mixed {
                oids: oids.into_iter().map(Oid).collect(),
                strategy,
                origin,
            }),
        (0.0..1.0f64).prop_map(Response::Value),
        any::<u64>().prop_map(Response::TaskAccepted),
        task_strategy().prop_map(Response::TaskInfo),
        prop::collection::vec(task_strategy(), 0..4).prop_map(Response::TaskList),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Requests round-trip bit-exactly through codec and framing.
    #[test]
    fn request_roundtrip(req in request_strategy()) {
        let payload = encode_request(&req);
        prop_assert_eq!(decode_request(&payload).unwrap(), req.clone());
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, &payload).unwrap();
        let Frame { kind, payload: read_back } =
            read_frame(&mut buf.as_slice()).unwrap().expect("one frame");
        prop_assert_eq!(kind, FrameKind::Request);
        prop_assert_eq!(decode_request(&read_back).unwrap(), req);
    }

    /// Responses round-trip bit-exactly through codec and framing.
    #[test]
    fn response_roundtrip(resp in response_strategy()) {
        let payload = encode_response(&resp);
        prop_assert_eq!(decode_response(&payload).unwrap(), resp.clone());
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Response, &payload).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap().expect("one frame");
        prop_assert_eq!(decode_response(&frame.payload).unwrap(), resp);
    }

    /// Arbitrary bytes never panic any decoder — they decode or they
    /// fail with a typed error.
    #[test]
    fn hostile_payloads_never_panic(bytes in prop::collection::vec(any::<u8>().boxed(), 0..64)) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = decode_fault(&bytes);
        let _ = read_frame(&mut bytes.as_slice());
    }

    /// Flipping any single byte of a framed request is always detected
    /// (magic, version, kind, length, CRC, or payload corruption) —
    /// the frame layer never silently hands back different bytes.
    #[test]
    fn single_byte_corruption_is_detected(
        flip_pos in any::<u16>(),
        flip_bits in 1u8..=255,
    ) {
        let req = Request::IrsQuery {
            collection: "collPara".into(),
            query: "telnet".into(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, &encode_request(&req)).unwrap();
        let pos = flip_pos as usize % buf.len();
        buf[pos] ^= flip_bits;
        match read_frame(&mut buf.as_slice()) {
            Err(_) => {}
            Ok(None) => {}
            Ok(Some(frame)) => {
                // The only headers field corruption can leave readable is
                // the kind byte; payload bytes are CRC-protected.
                prop_assert_eq!(pos, 5, "only a kind flip may still read");
                prop_assert_eq!(frame.payload, encode_request(&req));
            }
        }
    }
}

/// The bytes of an `EnqueueTask` payload for each `TaskKind` variant,
/// pinned: the request tag 8, then the kind's layout (tag byte, `u32`
/// length-prefixed strings, an 8-byte oid, a `u32` list count). The
/// task ledger stores the same kind bytes (`tests/tests/tasks.rs`).
#[test]
fn enqueue_task_payload_bytes_are_pinned() {
    let cases: [(TaskKind, &[u8]); 3] = [
        (
            TaskKind::IndexObjects {
                collection: "docs".into(),
                spec_query: "ACCESS p FROM p IN PARA".into(),
            },
            b"\x08\x00\x04\x00\x00\x00docs\x17\x00\x00\x00ACCESS p FROM p IN PARA",
        ),
        (
            TaskKind::UpdateText {
                oid: Oid(0x0102),
                text: "hi".into(),
                collections: vec!["a".into(), "bc".into()],
            },
            b"\x08\x01\x02\x01\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00hi\
              \x02\x00\x00\x00\x01\x00\x00\x00a\x02\x00\x00\x00bc",
        ),
        (
            TaskKind::Flush {
                collection: "c".into(),
            },
            b"\x08\x02\x01\x00\x00\x00c",
        ),
    ];
    for (kind, golden) in cases {
        let req = Request::EnqueueTask { kind };
        assert_eq!(encode_request(&req), golden, "{req:?}");
        assert_eq!(decode_request(golden).expect("decodes"), req);
    }
}
