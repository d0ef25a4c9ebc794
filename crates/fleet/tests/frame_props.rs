//! Property suite for the frame decoder: whatever bytes arrive —
//! mutated, truncated, reordered, or outright adversarial — the decoder
//! returns a typed error or a valid frame. It never panics and never
//! lets an attacker-controlled length prefix drive allocation.

use voltsense_fleet::frame::{
    fnv1a32, Frame, FrameDecoder, FrameError, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use voltsense_testkit::{choice, forall, u64_range, usize_range, vec_f64};

/// Build one frame of every kind from a handful of scalars, so `forall`
/// shrinks over frame content while `choice` shrinks across kinds.
fn frame_from(tag: &str, a: u64, b: u64, values: &[f64]) -> Frame {
    match tag {
        "hello" => Frame::Hello { tenant: a, chip: b },
        "hello_ack" => Frame::HelloAck { chip: a, resumed: b & 1 == 1, alarmed: b & 2 == 2 },
        // Odd `b` carries a trace ID (the v2 wire kind), even stays v1 —
        // the mutation/truncation/chunking properties then cover both
        // encodings without a dedicated tag.
        "readings" => Frame::Readings {
            chip: a,
            seq: b,
            trace: (b & 1 == 1).then(|| a ^ b.rotate_left(31) | 1),
            values: values.to_vec(),
        },
        "decision" => Frame::Decision {
            chip: a,
            seq: b,
            flags: (b & 7) as u8,
            predicted_min: values.first().copied().unwrap_or(0.9),
        },
        "busy" => Frame::Busy { chip: a, retry_after_ms: (b & 0xFFFF) as u32 },
        "error" => Frame::Error {
            code: (a & 0xFF) as u8,
            chip: b,
            message: format!("detail {a}"),
        },
        other => panic!("unknown tag {other}"),
    }
}

const TAGS: [&str; 6] = ["hello", "hello_ack", "readings", "decision", "busy", "error"];

#[test]
fn any_frame_roundtrips_through_any_chunking() {
    forall!(cases = 128, (
        tag in choice(TAGS.to_vec()),
        a in u64_range(0, u64::MAX),
        b in u64_range(0, u64::MAX),
        values in vec_f64(9, 0.0, 1.5),
        chunk in usize_range(1, 64),
    ) => {
        let frame = frame_from(tag, a, b, &values);
        let wire = frame.encode();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        let mut out = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.push(piece);
            while let Some(f) = dec.next().expect("valid wire bytes decode") {
                out.push(f);
            }
        }
        assert_eq!(out, vec![frame], "roundtrip through {chunk}-byte chunks");
        assert_eq!(dec.buffered(), 0, "nothing left over");
    });
}

#[test]
fn decoder_cursor_accounts_every_byte_and_stays_bounded() {
    // The largest body `frame_from` builds from 9 values: a traced
    // readings frame. A decoder capped there accepts every frame below.
    const CAP: usize = 1 + 8 + 8 + 8 + 4 + 8 * 9;
    forall!(cases = 64, (
        tags in vec_f64(24, 0.0, TAGS.len() as f64),
        seqs in vec_f64(24, 0.0, 1e6),
        values in vec_f64(9, 0.0, 1.5),
        chunks in vec_f64(16, 1.0, 97.0),
    ) => {
        let frames: Vec<Frame> = tags
            .iter()
            .zip(&seqs)
            .enumerate()
            .map(|(i, (&t, &b))| frame_from(TAGS[t as usize], i as u64, b as u64, &values))
            .collect();
        let lens: Vec<usize> = frames.iter().map(|f| f.encode().len()).collect();
        let wire: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        let mut dec = FrameDecoder::new(CAP);
        let (mut pushed, mut consumed, mut at) = (0, 0, 0);
        let mut out = Vec::new();
        for &chunk in chunks.iter().cycle() {
            if at == wire.len() {
                break;
            }
            let piece = &wire[at..wire.len().min(at + chunk as usize)];
            at += piece.len();
            dec.push(piece);
            pushed += piece.len();
            loop {
                let next = dec.next().expect("valid wire bytes decode");
                if next.is_some() {
                    consumed += lens[out.len()];
                }
                assert_eq!(dec.buffered(), pushed - consumed, "unread bytes");
                assert!(
                    dec.retained() <= HEADER_LEN + CAP + piece.len(),
                    "retained {} bytes past the frame cap plus one push of {}",
                    dec.retained(),
                    piece.len()
                );
                match next {
                    Some(frame) => out.push(frame),
                    None => break,
                }
            }
        }
        assert_eq!(out, frames);
    });
}

#[test]
fn any_single_byte_mutation_yields_error_or_valid_frame_never_panic() {
    forall!(cases = 256, (
        tag in choice(TAGS.to_vec()),
        a in u64_range(0, u64::MAX),
        b in u64_range(0, 1 << 20),
        values in vec_f64(5, 0.0, 1.5),
        at_pick in u64_range(0, 1 << 32),
        flip_pick in u64_range(1, 256),
    ) => {
        let wire = frame_from(tag, a, b, &values).encode();
        let mut bad = wire.clone();
        let at = (at_pick as usize) % bad.len();
        bad[at] ^= flip_pick as u8;
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&bad);
        // Drain until quiescent: every outcome is a typed error, a valid
        // frame, or "need more bytes" — reaching here without a panic IS
        // the property.
        while let Ok(Some(_)) = dec.next() {}
        // The buffer never exceeds what was pushed: decoding allocates
        // from received bytes, not from the (possibly lying) prefix.
        assert!(dec.buffered() <= bad.len());
    });
}

#[test]
fn any_truncation_is_need_more_bytes_or_a_typed_error() {
    forall!(cases = 128, (
        tag in choice(TAGS.to_vec()),
        a in u64_range(0, u64::MAX),
        b in u64_range(0, 1 << 20),
        values in vec_f64(7, 0.0, 1.5),
        cut_pick in u64_range(0, 1 << 32),
    ) => {
        let wire = frame_from(tag, a, b, &values).encode();
        let cut = (cut_pick as usize) % wire.len();
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        dec.push(&wire[..cut]);
        match dec.next() {
            Ok(None) => {
                // Correct: a strict prefix of one frame is never complete.
                // Feeding the rest must produce exactly the original.
                dec.push(&wire[cut..]);
                assert!(dec.next().expect("completed frame decodes").is_some());
            }
            Ok(Some(f)) => panic!("prefix of one frame decoded to {f:?}"),
            Err(_) => {} // typed rejection is acceptable, panics are not
        }
    });
}

#[test]
fn adversarial_length_prefixes_never_drive_allocation() {
    // Tiny cap so "oversized" is easy to hit; the decoder must reject
    // from the header alone, before buffering any body.
    const CAP: usize = 256;
    forall!(cases = 256, (
        claimed in u64_range(0, 1 << 32),
        checksum in u64_range(0, 1 << 32),
        junk in vec_f64(16, -1.0, 1.0),
    ) => {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(claimed as u32).to_le_bytes());
        wire.extend_from_slice(&(checksum as u32).to_le_bytes());
        for v in &junk {
            wire.extend_from_slice(&v.to_le_bytes());
        }
        let mut dec = FrameDecoder::new(CAP);
        dec.push(&wire);
        match dec.next() {
            Err(FrameError::TooLarge { len, max }) => {
                assert!(len > CAP);
                assert_eq!(max, CAP);
                // Poisoned decoders drop everything: bounded memory even
                // if the peer keeps streaming garbage.
                dec.push(&[0xAB; 1024]);
                assert_eq!(dec.buffered(), 0);
            }
            Err(_) => {}
            Ok(None) => assert!(dec.buffered() <= wire.len()),
            Ok(Some(_)) => {
                // Astronomically unlikely (random checksum must match),
                // but it would still be a *valid* frame, which satisfies
                // the property.
            }
        }
        assert!(
            dec.buffered() <= HEADER_LEN + CAP + wire.len(),
            "buffer bounded by cap + one read, not by the claimed length"
        );
    });
}

#[test]
fn interleaved_garbage_after_valid_frames_poisons_cleanly() {
    forall!(cases = 64, (
        n_good in usize_range(1, 8),
        garbage in vec_f64(8, -1.0, 1.0),
    ) => {
        let mut dec = FrameDecoder::new(DEFAULT_MAX_FRAME);
        for i in 0..n_good {
            dec.push(&Frame::Busy { chip: i as u64, retry_after_ms: 1 }.encode());
        }
        // A garbage header whose checksum can't match its body.
        let mut tail = 16u32.to_le_bytes().to_vec();
        tail.extend_from_slice(&fnv1a32(b"not the body").to_le_bytes());
        for v in &garbage {
            tail.extend_from_slice(&v.to_le_bytes());
        }
        dec.push(&tail);
        // Every good frame decodes first; then the typed poison.
        for _ in 0..n_good {
            assert!(matches!(dec.next(), Ok(Some(Frame::Busy { .. }))));
        }
        assert!(dec.next().is_err(), "garbage tail must poison");
        assert!(dec.next().is_err(), "poison is permanent");
    });
}
