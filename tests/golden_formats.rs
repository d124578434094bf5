//! Golden byte pins for every binary format the workspace writes: `.rawz`
//! frames, MSK3 masks, `.plz` pathlines, serve wire frames and `.ifet`
//! session containers.
//!
//! Round-trip tests cannot see a change made symmetrically to an encoder
//! and its decoder; these can. Each test encodes a small deterministic
//! input and compares the exact output bytes against a literal: the bytes
//! themselves (hex) where they are short, otherwise their length plus an
//! FNV-1a hash computed here — never through the CRC-32 the formats embed.
//! Each test then decodes the pinned bytes back to the input.
//!
//! A failing pin means on-disk or on-wire bytes changed. That is a format
//! change: bump the format's version constant instead of editing the pin.

use ifet_core::persist::{ArtifactReader, ArtifactWriter};
use ifet_serve::{
    decode_request, decode_response, encode_request, encode_response, Axis, ErrorCode, Request,
    Response, ResponseBody, StatsReport, Verb, WireCriterion,
};
use ifet_trace::artifact::pathlines_from_bytes;
use ifet_trace::{pathlines_to_bytes, ParticleEnding, Pathline, PathlineSet};
use ifet_volume::codec::{decode_frame, encode_frame, BRICK_VOXELS};
use ifet_volume::{decode_mask, encode_mask, Dims3, Mask3};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// 64-bit FNV-1a: a test-local digest, independent of the formats' CRC.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_hex_pin(what: &str, bytes: &[u8], pin: &str) {
    assert_eq!(hex(bytes), pin, "{what}: encoded bytes changed");
}

fn assert_digest_pin(what: &str, bytes: &[u8], pin: (usize, u64)) {
    assert_eq!(
        (bytes.len(), fnv1a(bytes)),
        pin,
        "{what}: encoded bytes changed (len, fnv1a)"
    );
}

/// A ragged two-brick frame: a full brick of hash noise (incompressible,
/// so stored verbatim) and a short smooth tail brick (packed).
fn two_brick_frame() -> Vec<f32> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let noise = (0..BRICK_VOXELS).map(|_| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        f32::from_bits((x >> 32) as u32)
    });
    let ramp = (0..37).map(|i| i as f32 * 0.5);
    noise.chain(ramp).collect()
}

#[test]
fn rawz_frame_bytes_are_pinned() {
    let values = two_brick_frame();
    let bytes = encode_frame(&values);
    // Header (magic, version, voxels, brick voxels, brick count, CRC) and
    // the two table entries, byte for byte; then the whole frame digested.
    assert_hex_pin("rawz header + table", &bytes[..46], RAWZ_HEAD);
    assert_digest_pin("rawz frame", &bytes, RAWZ_DIGEST);
    let back = decode_frame(&bytes, values.len()).unwrap();
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(&values));
}

const RAWZ_HEAD: &str =
    "49465a31010000002510000000000000001000000200000007d2110100004000002b31ed00011a0000008eb01cf1";
const RAWZ_DIGEST: (usize, u64) = (16456, 0x9fb5a20221021249);

#[test]
fn mask_bytes_are_pinned() {
    let mask = Mask3::from_fn(Dims3::new(5, 3, 2), |x, y, z| (x + 2 * y + 3 * z) % 3 == 0);
    let bytes = encode_mask(&mask);
    assert_hex_pin("MSK3 mask", &bytes, MASK_HEX);
    let (back, used) = decode_mask(&unhex(MASK_HEX)).unwrap();
    assert_eq!((back, used), (mask, bytes.len()));
}

const MASK_HEX: &str = "4d534b330100000005000000000000000300000000000000020000000000000001000000000000004992240900000000";

fn two_particle_set() -> PathlineSet {
    PathlineSet {
        dims: Dims3::new(4, 5, 6),
        steps: vec![0, 2, 4],
        rk4_dt: 0.25,
        pathlines: vec![
            Pathline {
                seed: [1.0, 2.0, 3.0],
                points: vec![[1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [2.0, 2.5, 3.0]],
                ending: ParticleEnding::Completed,
            },
            Pathline {
                seed: [3.5, 0.5, 1.0],
                points: vec![[3.5, 0.5, 1.0]],
                ending: ParticleEnding::LeftDomain { time: 1.75 },
            },
        ],
    }
}

#[test]
fn plz_pathline_bytes_are_pinned() {
    let set = two_particle_set();
    let bytes = pathlines_to_bytes(&set);
    assert_hex_pin("plz header", &bytes[..52], PLZ_HEAD);
    assert_digest_pin("plz artifact", &bytes, PLZ_DIGEST);
    assert_eq!(pathlines_from_bytes(&bytes).unwrap(), set);
}

const PLZ_HEAD: &str = "49464554504c5a31010000000400000005000000060000000300000002000000000000000000d03f000000000200000004000000";
const PLZ_DIGEST: (usize, u64) = (226, 0x8e7485d51b99effe);

fn requests() -> Vec<Request> {
    let verbs = vec![
        Verb::Open {
            artifact: "a.ifet".into(),
            data_dir: "d".into(),
        },
        Verb::Classify { step: 5, tau: 0.5 },
        Verb::Track {
            criterion: WireCriterion::FixedBand { lo: 0.25, hi: 2.0 },
            seeds: vec![(0, 1, 2, 3)],
        },
        Verb::Track {
            criterion: WireCriterion::AdaptiveTf { tau: 0.5 },
            seeds: vec![],
        },
        Verb::Track {
            criterion: WireCriterion::DataSpace { tau: 0.75 },
            seeds: vec![(4, 5, 6, 7)],
        },
        Verb::RenderSlice {
            step: 10,
            axis: Axis::Y,
            k: 3,
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
            request_id: 0x0102_0304_0506_0700 + i as u64,
            tenant: 9,
            verb,
        })
        .collect()
}

fn responses() -> Vec<Response> {
    let bodies = vec![
        ResponseBody::OpenOk {
            frames: 16,
            dims: (12, 12, 12),
            first_step: 0,
            last_step: 75,
            has_iatf: true,
            has_classifier: false,
            tracks: 1,
        },
        ResponseBody::ClassifyOk {
            voxels: 3,
            words: vec![0b1011, u64::MAX],
        },
        ResponseBody::TrackOk {
            voxels_per_frame: vec![4, 0, 2],
            events: 1,
        },
        ResponseBody::RenderSliceOk {
            width: 2,
            height: 1,
            rgb: vec![1, 2, 3, 250, 251, 252],
        },
        ResponseBody::StatsOk(StatsReport {
            sent: 1,
            accepted: 2,
            rejected: 3,
            completed: 4,
            max_depth: 5,
            batch_jobs: 6,
            batch_cycles: 7,
            batch_rows: 8,
            evictions: 9,
            quota_evictions: 10,
            idle_evictions: 11,
        }),
        ResponseBody::CloseOk,
        ResponseBody::HelloOk {
            version: 2,
            max_pipeline: 8,
        },
        ResponseBody::Err {
            code: ErrorCode::Open,
            message: "no".into(),
        },
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| Response {
            request_id: 0x0102_0304_0506_0700 + i as u64,
            tenant: 9,
            body,
        })
        .collect()
}

#[test]
fn serve_request_frames_are_pinned() {
    let reqs = requests();
    assert_eq!(reqs.len(), REQUEST_HEX.len());
    for (req, pin) in reqs.iter().zip(REQUEST_HEX) {
        assert_hex_pin(req.verb.name(), &encode_request(req), pin);
        assert_eq!(&decode_request(&unhex(pin)).unwrap(), req);
    }
}

const REQUEST_HEX: [&str; 9] = [
    "494651311c0000000007060504030201090000000006000000612e6966657401000000646da66a5f",
    "494651311500000001070605040302010900000001050000000000003f5a749d47",
    "494651312a00000002070605040302010900000002000000803e0000004001000000000000000100000002000000030000002e325d49",
    "494651311600000003070605040302010900000002010000003f00000000f7ecdfba",
    "494651312600000004070605040302010900000002020000403f0100000004000000050000000600000007000000b196832f",
    "4946513117000000050706050403020109000000030a000000010300000001082d122b",
    "494651310d00000006070605040302010900000004dc434850",
    "494651310d00000007070605040302010900000005cfaad9fa",
    "4946513111000000080706050403020109000000060800000044fd8192",
];

#[test]
fn serve_response_frames_are_pinned() {
    let rsps = responses();
    assert_eq!(rsps.len(), RESPONSE_HEX.len());
    for (rsp, pin) in rsps.iter().zip(RESPONSE_HEX) {
        assert_hex_pin(&format!("{:?}", rsp.body), &encode_response(rsp), pin);
        assert_eq!(&decode_response(&unhex(pin)).unwrap(), rsp);
    }
}

const RESPONSE_HEX: [&str; 8] = [
    "494653312a00000000070605040302010900000000100000000c0000000c0000000c000000000000004b000000010100000096d57725",
    "4946533129000000010706050403020109000000010300000000000000020000000b00000000000000ffffffffffffffff891b1953",
    "494653312100000002070605040302010900000002030000000400000000000000020000000100000042824fc7",
    "494653311f00000003070605040302010900000003020000000100000006000000010203fafbfc49aa352e",
    "4946533165000000040706050403020109000000040100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000004436c7d0",
    "494653310d00000005070605040302010900000005841f859a",
    "494653311500000006070605040302010900000006020000000800000000930c33",
    "4946533114000000070706050403020109000000ff05020000006e6fb155a825",
];

#[test]
fn ifet_container_bytes_are_pinned() {
    let mut w = ArtifactWriter::new();
    w.add("META", b"{\"v\":1}".to_vec())
        .add("EMPTY", Vec::new())
        .add("BLOB", (0u8..12).collect());
    let bytes = w.to_bytes();
    assert_hex_pin(".ifet container", &bytes, IFET_HEX);
    let pinned = unhex(IFET_HEX);
    let r = ArtifactReader::parse(&pinned).unwrap();
    assert_eq!(r.tags().collect::<Vec<_>>(), ["META", "EMPTY", "BLOB"]);
    assert_eq!(r.section("META"), Some(&b"{\"v\":1}"[..]));
    assert_eq!(r.section("EMPTY"), Some(&[][..]));
    assert_eq!(r.section("BLOB"), Some(&(0u8..12).collect::<Vec<_>>()[..]));
}

const IFET_HEX: &str = "494645545345535301000000030000004d45544120202020680000000000000007000000000000003de7db84454d5054592020206f00000000000000000000000000000000000000424c4f42202020206f000000000000000c0000000000000065c9709252e3c8697b2276223a317d000102030405060708090a0b";
