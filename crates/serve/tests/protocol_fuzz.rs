//! Protocol corruption and fuzz suite: the wire codec must be *total*.
//! Whatever bytes arrive — flipped, truncated, oversized, re-checksummed
//! with hostile discriminants, or outright garbage — decoding returns a
//! typed [`ProtocolError`] or a valid message. It never panics, never
//! allocates against a hostile length prefix, and a corrupted request can
//! never be attributed to a session (the engine answers `request_id 0,
//! tenant 0, Protocol` because the CRC covers the whole payload, ids
//! included).

use ifet_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame_bytes,
    ProtocolError, FRAME_OVERHEAD, MAGIC_REQUEST, MAGIC_RESPONSE, MAX_PAYLOAD,
};
use ifet_serve::{
    Axis, ErrorCode, Request, Response, ResponseBody, ServeConfig, ServeEngine, StatsReport, Verb,
    WireCriterion,
};
use ifet_volume::framing::crc32;
use std::io::Cursor;

#[path = "../../../tests/support/mod.rs"]
mod support;
use support::mix;

/// Offset of the verb discriminant inside a request payload:
/// `request_id: u64` + `tenant: u32`.
const VERB_TAG_OFFSET: usize = 12;

/// One representative request per verb (strings, floats, vectors, bools —
/// every field shape the codec knows).
fn sample_requests() -> Vec<Request> {
    let verbs = vec![
        Verb::Open {
            artifact: "/data/run7/session.ifet".into(),
            data_dir: "/data/run7".into(),
        },
        Verb::Classify {
            step: 35,
            tau: 0.65,
        },
        Verb::Track {
            criterion: WireCriterion::FixedBand { lo: 0.9, hi: 3.0 },
            seeds: vec![(0, 3, 6, 6), (5, 7, 6, 6)],
        },
        Verb::Track {
            criterion: WireCriterion::AdaptiveTf { tau: 0.4 },
            seeds: vec![(2, 1, 2, 3)],
        },
        Verb::RenderSlice {
            step: 10,
            axis: Axis::Y,
            k: 6,
            adaptive: true,
        },
        Verb::ReportStats,
        Verb::Close,
        Verb::Hello { max_pipeline: 8 },
    ];
    verbs
        .into_iter()
        .enumerate()
        .map(|(i, verb)| Request {
            request_id: 0xABCD_0000 + i as u64,
            tenant: 42 + i as u32,
            verb,
        })
        .collect()
}

/// One representative response per body variant.
fn sample_responses() -> Vec<Response> {
    let bodies = vec![
        ResponseBody::OpenOk {
            frames: 16,
            dims: (12, 12, 12),
            first_step: 0,
            last_step: 75,
            has_iatf: true,
            has_classifier: false,
            tracks: 3,
        },
        ResponseBody::ClassifyOk {
            voxels: 123,
            words: vec![0xDEAD_BEEF, 0, u64::MAX],
        },
        ResponseBody::TrackOk {
            voxels_per_frame: vec![10, 20, 0, 5],
            events: 2,
        },
        ResponseBody::RenderSliceOk {
            width: 3,
            height: 2,
            rgb: vec![
                0, 128, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
            ],
        },
        ResponseBody::StatsOk(StatsReport {
            sent: 9,
            accepted: 7,
            rejected: 2,
            completed: 7,
            max_depth: 3,
            batch_jobs: 5,
            batch_cycles: 2,
            batch_rows: 1728,
            evictions: 6,
            quota_evictions: 4,
            idle_evictions: 1,
        }),
        ResponseBody::HelloOk {
            version: 2,
            max_pipeline: 64,
        },
        ResponseBody::CloseOk,
        ResponseBody::Err {
            code: ErrorCode::Overloaded,
            message: "tenant 42 over bound".into(),
        },
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| Response {
            request_id: 0x1000 + i as u64,
            tenant: 9,
            body,
        })
        .collect()
}

#[test]
fn pristine_frames_round_trip() {
    for req in sample_requests() {
        let frame = encode_request(&req);
        assert_eq!(decode_request(&frame).unwrap(), req);
    }
    for rsp in sample_responses() {
        let frame = encode_response(&rsp);
        assert_eq!(decode_response(&frame).unwrap(), rsp);
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error() {
    // CRC-32 detects every single-byte error, and the header fields are
    // validated directly — so *no* flip anywhere in the frame may survive
    // as an Ok decode, under any of three flip patterns.
    for req in sample_requests() {
        let frame = encode_request(&req);
        for i in 0..frame.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = frame.clone();
                bad[i] ^= mask;
                assert!(
                    decode_request(&bad).is_err(),
                    "flip {mask:#04x} at byte {i} of {:?} decoded Ok",
                    req.verb
                );
            }
        }
    }
    for rsp in sample_responses() {
        let frame = encode_response(&rsp);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            assert!(
                decode_response(&bad).is_err(),
                "response flip at byte {i} decoded Ok"
            );
        }
    }
}

#[test]
fn every_truncation_is_a_typed_error() {
    for req in sample_requests() {
        let frame = encode_request(&req);
        for n in 0..frame.len() {
            match decode_request(&frame[..n]) {
                Err(ProtocolError::Truncated { .. }) => {}
                Err(e) => panic!("prefix {n}: expected Truncated, got {e:?}"),
                Ok(_) => panic!("prefix {n} of {} decoded Ok", frame.len()),
            }
        }
        // ...and one byte *extra* is trailing garbage, not a frame.
        let mut long = frame.clone();
        long.push(0);
        assert!(matches!(
            decode_request(&long),
            Err(ProtocolError::TrailingBytes { extra: 1 })
        ));
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocation() {
    for len in [MAX_PAYLOAD + 1, u32::MAX, u32::MAX - 7] {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC_REQUEST);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&[0u8; 64]);
        match decode_request(&frame) {
            Err(ProtocolError::Oversized { len: l, max }) => {
                assert_eq!(l, len);
                assert_eq!(max, MAX_PAYLOAD);
            }
            other => panic!("length {len}: expected Oversized, got {other:?}"),
        }
    }
    // An honest length with a hostile magic is caught first.
    let mut frame = vec![0x00, 0x11, 0x22, 0x33];
    frame.extend_from_slice(&4u32.to_le_bytes());
    frame.extend_from_slice(&[0u8; 8]);
    assert!(matches!(
        decode_request(&frame),
        Err(ProtocolError::BadMagic { .. })
    ));
}

/// The engine's reply to an oversized length prefix, pinned byte for byte.
/// The message must echo the *offending declared length* (so a client
/// operator can see what the peer claimed), the reply is unattributed
/// (request id 0 / tenant 0), and the encoding is frozen: any accidental
/// change to the error text, the status discriminant, or the framing shows
/// up here as a literal byte diff.
#[test]
fn oversized_reply_bytes_are_pinned_and_echo_the_declared_length() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC_REQUEST);
    frame.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    frame.extend_from_slice(&[0u8; 16]);
    let engine = ServeEngine::new(ServeConfig::default());
    let reply = engine.handle_wire(&frame);

    #[rustfmt::skip]
    const PINNED: [u8; 73] = [
        // "IFS1" | payload_len 61 LE
        0x49, 0x46, 0x53, 0x31, 0x3D, 0x00, 0x00, 0x00,
        // request_id 0 | tenant 0 | status Err (255) | code Protocol (0)
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xFF, 0x00,
        // message len 43 LE | "length prefix 16777217 exceeds cap 16777216"
        0x2B, 0x00, 0x00, 0x00,
        0x6C, 0x65, 0x6E, 0x67, 0x74, 0x68, 0x20, 0x70, 0x72, 0x65, 0x66, 0x69, 0x78, 0x20,
        0x31, 0x36, 0x37, 0x37, 0x37, 0x32, 0x31, 0x37, 0x20,
        0x65, 0x78, 0x63, 0x65, 0x65, 0x64, 0x73, 0x20, 0x63, 0x61, 0x70, 0x20,
        0x31, 0x36, 0x37, 0x37, 0x37, 0x32, 0x31, 0x36,
        // crc32 over the payload
        0xF2, 0xE9, 0xE2, 0x50,
    ];
    assert_eq!(reply, PINNED, "oversized reply encoding drifted");

    // The pin is self-consistent: it decodes back to the typed error with
    // the declared length in the message.
    let rsp = decode_response(&reply).unwrap();
    assert_eq!(rsp.request_id, 0);
    assert_eq!(rsp.tenant, 0);
    match rsp.body {
        ResponseBody::Err { code, message } => {
            assert_eq!(code, ErrorCode::Protocol);
            assert!(
                message.contains(&(MAX_PAYLOAD + 1).to_string()),
                "message must echo the offending declared length: {message}"
            );
            assert!(
                message.contains(&MAX_PAYLOAD.to_string()),
                "message must state the cap: {message}"
            );
        }
        other => panic!("expected Protocol error, got {other:?}"),
    }

    // Every hostile declared length echoes its own value — the reply is a
    // function of the attack, not a canned string.
    for len in [MAX_PAYLOAD + 2, u32::MAX] {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC_REQUEST);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        let rsp = decode_response(&engine.handle_wire(&frame)).unwrap();
        match rsp.body {
            ResponseBody::Err { code, message } => {
                assert_eq!(code, ErrorCode::Protocol);
                assert!(message.contains(&len.to_string()), "len {len}: {message}");
            }
            other => panic!("len {len}: expected Protocol error, got {other:?}"),
        }
    }
}

/// Rewrite one payload byte and *fix the CRC*, so corruption reaches the
/// semantic decoder instead of being stopped at the checksum. Every
/// position must decode to Ok or a typed error — discriminant positions to
/// their specific `Unknown*` variants — and never panic.
fn with_recrc(frame: &[u8], payload_pos: usize, value: u8) -> Vec<u8> {
    let payload_len = frame.len() - FRAME_OVERHEAD;
    assert!(payload_pos < payload_len);
    let mut bad = frame.to_vec();
    bad[8 + payload_pos] = value;
    let crc = crc32(&bad[8..8 + payload_len]);
    let end = bad.len();
    bad[end - 4..].copy_from_slice(&crc.to_le_bytes());
    bad
}

#[test]
fn recrcd_mutations_decode_totally_and_discriminants_are_typed() {
    for req in sample_requests() {
        let frame = encode_request(&req);
        let payload_len = frame.len() - FRAME_OVERHEAD;
        for pos in 0..payload_len {
            for value in [0x00u8, 0x07, 0xEE, 0xFF] {
                let bad = with_recrc(&frame, pos, value);
                // Must not panic; Ok or typed error are both acceptable —
                // many positions are plain data bytes.
                let _ = decode_request(&bad);
            }
        }
        // The verb discriminant specifically must answer UnknownVerb.
        let bad = with_recrc(&frame, VERB_TAG_OFFSET, 0xEE);
        assert!(matches!(
            decode_request(&bad),
            Err(ProtocolError::UnknownVerb(0xEE))
        ));
    }
    // Unknown criterion and axis discriminants, at their exact offsets.
    let track = encode_request(&Request {
        request_id: 1,
        tenant: 1,
        verb: Verb::Track {
            criterion: WireCriterion::FixedBand { lo: 0.0, hi: 1.0 },
            seeds: vec![(0, 0, 0, 0)],
        },
    });
    assert!(matches!(
        decode_request(&with_recrc(&track, VERB_TAG_OFFSET + 1, 9)),
        Err(ProtocolError::UnknownCriterion(9))
    ));
    let slice = encode_request(&Request {
        request_id: 1,
        tenant: 1,
        verb: Verb::RenderSlice {
            step: 0,
            axis: Axis::X,
            k: 0,
            adaptive: false,
        },
    });
    // RenderSlice body: step u32, then the axis tag.
    assert!(matches!(
        decode_request(&with_recrc(&slice, VERB_TAG_OFFSET + 5, 3)),
        Err(ProtocolError::UnknownAxis(3))
    ));
    // Response status discriminant (same offset as the request verb tag).
    let rsp = encode_response(&sample_responses()[0]);
    assert!(matches!(
        decode_response(&with_recrc(&rsp, VERB_TAG_OFFSET, 0x7F)),
        Err(ProtocolError::UnknownStatus(0x7F))
    ));
}

#[test]
fn seeded_garbage_never_panics() {
    // Deterministic garbage: splitmix64 byte streams of many lengths,
    // including some that start with valid magic so decoding gets past the
    // first gate before hitting nonsense.
    for seed in 0..64u64 {
        let len = (mix(seed) % 96) as usize;
        let mut bytes: Vec<u8> = (0..len)
            .map(|i| (mix(seed ^ (i as u64) << 32) & 0xFF) as u8)
            .collect();
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        if bytes.len() >= 4 {
            bytes[..4].copy_from_slice(&MAGIC_REQUEST);
            assert!(
                decode_request(&bytes).is_err(),
                "garbage decoded Ok (seed {seed})"
            );
            bytes[..4].copy_from_slice(&MAGIC_RESPONSE);
            assert!(decode_response(&bytes).is_err());
        }
    }
}

#[test]
fn stream_reader_is_safe_against_eof_truncation_and_oversize() {
    // Clean EOF at a frame boundary → None.
    let mut empty = Cursor::new(Vec::new());
    assert!(read_frame_bytes(&mut empty, MAGIC_REQUEST)
        .unwrap()
        .is_none());

    // A full frame then EOF: frame comes out decodable, then None.
    let req = &sample_requests()[1];
    let frame = encode_request(req);
    let mut stream = Cursor::new(frame.clone());
    let got = read_frame_bytes(&mut stream, MAGIC_REQUEST)
        .unwrap()
        .unwrap()
        .unwrap();
    assert_eq!(decode_request(&got).unwrap(), *req);
    assert!(read_frame_bytes(&mut stream, MAGIC_REQUEST)
        .unwrap()
        .is_none());

    // EOF mid-frame at every cut point → Truncated, never a hang or panic.
    for n in 1..frame.len() {
        let mut cut = Cursor::new(frame[..n].to_vec());
        match read_frame_bytes(&mut cut, MAGIC_REQUEST).unwrap() {
            Some(Err(ProtocolError::Truncated { .. })) => {}
            other => panic!("cut at {n}: expected Truncated, got {other:?}"),
        }
    }

    // A hostile length prefix is rejected from the 8-byte header alone —
    // before the reader allocates or pulls a single payload byte.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&MAGIC_REQUEST);
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut stream = Cursor::new(hostile);
    match read_frame_bytes(&mut stream, MAGIC_REQUEST).unwrap() {
        Some(Err(ProtocolError::Oversized { len, .. })) => assert_eq!(len, u32::MAX),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn corrupted_requests_never_get_a_session_attributed_reply() {
    // End-to-end through the engine: whatever corruption arrives, the reply
    // is a Protocol error pinned to request 0 / tenant 0 — a flipped tenant
    // or request id can never echo back as if it were real, because the CRC
    // covers those fields too.
    let engine = ServeEngine::new(ServeConfig::default());
    for req in sample_requests() {
        let frame = encode_request(&req);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            let rsp =
                decode_response(&engine.handle_wire(&bad)).expect("reply must be well-formed");
            assert_eq!(rsp.request_id, 0, "flip at {i} got attributed");
            assert_eq!(rsp.tenant, 0, "flip at {i} got attributed");
            match rsp.body {
                ResponseBody::Err { code, .. } => assert_eq!(code, ErrorCode::Protocol),
                other => panic!("flip at {i}: expected Protocol error, got {other:?}"),
            }
        }
    }
}
