//! Known-answer tests for the vendored ChaCha keystreams.
//!
//! Every trajectory in the workspace is a pure function of these words, so they are pinned
//! here (the vendored crate's own unit tests sit outside the workspace). The expected
//! values were recorded from the one-block scalar generator; the block kernels (the seeded
//! generators' eight-block refill and the eight-stream group open) must reproduce them word
//! for word, including across refill boundaries, seeks and the word-12 → word-13 counter
//! carry.

use cobra_graph::sample::VertexStreams;
use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha12Rng, ChaCha20Rng, ChaCha8Rng, ChaCha8Stream};

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn digest(words: &[u32]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn words<R: RngCore>(rng: &mut R, count: usize) -> Vec<u32> {
    (0..count).map(|_| rng.next_u32()).collect()
}

fn assert_known(words: &[u32], expected_digest: u64, picks: &[(usize, u32)]) {
    for &(index, word) in picks {
        assert_eq!(words[index], word, "word {index}");
    }
    assert_eq!(digest(words), expected_digest);
}

#[test]
fn seeded_keystreams_match_the_recorded_words() {
    // Words 0..=300 span several four-block refills (64 words each).
    assert_known(
        &words(&mut ChaCha8Rng::seed_from_u64(2016), 301),
        0xa0fd_0cfa_229b_0390,
        &[
            (0, 0x784d_880d),
            (1, 0xea5b_2177),
            (15, 0xc639_d7ad),
            (16, 0x651c_9128),
            (63, 0x8a02_6681),
            (64, 0x154b_1d30),
            (65, 0xe7d7_3601),
            (127, 0x54fa_c5a6),
            (128, 0x9945_2c02),
            (255, 0xcdaa_3cd2),
            (256, 0x6d71_dbb6),
            (300, 0x473a_8be5),
        ],
    );
    assert_known(
        &words(&mut ChaCha12Rng::seed_from_u64(2016), 301),
        0xa58a_b8b6_4448_6c3b,
        &[
            (0, 0x4c78_5b12),
            (1, 0xe21a_f19d),
            (15, 0x0663_5067),
            (16, 0xd7d9_1b38),
            (63, 0xfcc5_caac),
            (64, 0x0108_ba2a),
            (65, 0xcd3d_63bb),
            (127, 0x2030_4d07),
            (128, 0x48d7_4649),
            (255, 0xbff6_d2d2),
            (256, 0x683a_6198),
            (300, 0x0982_02d2),
        ],
    );
    assert_known(
        &words(&mut ChaCha20Rng::seed_from_u64(2016), 301),
        0x0eb4_8827_65a7_1bd9,
        &[
            (0, 0x98a8_b10b),
            (1, 0x6d12_e895),
            (15, 0xcb57_b3d8),
            (16, 0xef44_e15f),
            (63, 0x5aaa_7c51),
            (64, 0xd4d8_f901),
            (65, 0x2122_a92d),
            (127, 0x091b_130b),
            (128, 0xd2df_799c),
            (255, 0x5961_109a),
            (256, 0x22a0_ffc7),
            (300, 0x1f97_0611),
        ],
    );
}

#[test]
fn next_u64_pairs_consecutive_words_across_refills() {
    let expected = words(&mut ChaCha12Rng::seed_from_u64(5), 300);
    // An odd offset makes one pair straddle every 64-word refill boundary.
    let mut rng = ChaCha12Rng::seed_from_u64(5);
    assert_eq!(rng.next_u32(), expected[0]);
    for pair in expected[1..299].chunks_exact(2) {
        assert_eq!(rng.next_u64(), u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
}

#[test]
fn seeks_land_on_the_recorded_words_and_report_their_position() {
    let expected = words(&mut ChaCha12Rng::seed_from_u64(2016), 301);
    let mut rng = ChaCha12Rng::seed_from_u64(2016);
    assert_eq!(rng.word_pos(), 0);
    for pos in [0u64, 15, 16, 63, 64, 65] {
        rng.set_word_pos(pos);
        assert_eq!(rng.word_pos(), pos);
        let read = words(&mut rng, 70);
        assert_eq!(read, expected[pos as usize..pos as usize + 70], "seek to {pos}");
        assert_eq!(rng.word_pos(), pos + 70);
    }
    // Positions reached by reading, not seeking, report the same way.
    let mut fresh = ChaCha12Rng::seed_from_u64(2016);
    for pos in 0..=130u64 {
        assert_eq!(fresh.word_pos(), pos);
        assert_eq!(fresh.next_u32(), expected[pos as usize]);
    }
    // A clone resumes at the same position with the same words.
    let mut copy = fresh.clone();
    assert_eq!(copy.word_pos(), fresh.word_pos());
    assert_eq!(words(&mut copy, 100), words(&mut fresh, 100));
}

#[test]
fn the_block_counter_carries_from_word_12_into_word_13() {
    // Block 2^32 - 2 onwards: the carry happens at word 32 of this read (block 2^32).
    let start = ((1u64 << 32) - 2) * 16;
    let mut rng = ChaCha12Rng::seed_from_u64(2016);
    rng.set_word_pos(start);
    let read = words(&mut rng, 80);
    assert_known(
        &read,
        0x7e8c_8723_3d2d_428d,
        &[
            (0, 0xcaa3_0eb9),
            (15, 0xd270_f5f9),
            (16, 0x0483_804b),
            (31, 0x65a7_a351),
            (32, 0x107d_cc5c),
            (47, 0x3b48_9767),
            (48, 0x1135_a55f),
            (79, 0x8a76_860e),
        ],
    );
    assert_eq!(rng.word_pos(), start + 80);
    let mut rng = ChaCha8Rng::seed_from_u64(2016);
    rng.set_word_pos(start);
    assert_known(
        &words(&mut rng, 80),
        0xb52a_e19e_e5c4_12e8,
        &[
            (0, 0x8ba4_e4cf),
            (15, 0xc772_19e8),
            (16, 0xb0f4_63be),
            (31, 0x002f_6c51),
            (32, 0x20e0_2dac),
            (47, 0x7214_a9e0),
            (48, 0x50bd_4527),
            (79, 0x56f8_1d19),
        ],
    );
}

fn test_key() -> [u8; 32] {
    std::array::from_fn(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
}

#[test]
fn entity_streams_match_the_recorded_words() {
    // (entity, round, digest of 40 words, word 0, word 1, word 16)
    let recorded: [(u64, u64, u64, u32, u32, u32); 7] = [
        (0, 0, 0x7f4b_c47f_819d_9b8c, 0x961e_d8cd, 0xf9de_9a5a, 0x3b83_6c16),
        (1, 3, 0x0e72_d184_66f5_f348, 0xae63_feeb, 0x3004_fbfe, 0x84c3_d4c6),
        (99_999, 3, 0x8ac0_926c_521e_2902, 0x984c_9ec9, 0x9235_8a41, 0xede2_b2d4),
        (u64::MAX - 2, 3, 0xb924_3d3c_b0d1_17be, 0xdd9b_790f, 0x7765_39c8, 0x9aeb_fffe),
        (u64::MAX - 1, 3, 0xb171_6d81_4616_2bda, 0xc56d_df5e, 0x68c1_a46c, 0x3449_acb2),
        (u64::MAX, 3, 0xd5a8_a299_0d53_619d, 0x2ab6_b2a5, 0xfb4f_e6ef, 0x901c_8f36),
        (7, u64::from(u32::MAX), 0x7b1d_78c7_8886_3375, 0xfae2_656a, 0x73af_5c0f, 0x571b_3229),
    ];
    let key = test_key();
    let streams = VertexStreams::new(key);
    for (entity, round, expected, w0, w1, w16) in recorded {
        let picks = [(0, w0), (1, w1), (16, w16)];
        assert_known(
            &words(&mut ChaCha8Stream::stream_for(&key, entity, round), 40),
            expected,
            &picks,
        );
        assert_known(&words(&mut streams.stream(entity, round), 40), expected, &picks);
        let mut batched = Vec::new();
        streams.for_each_stream([entity], round, |_, stream| batched = words(stream, 40));
        assert_known(&batched, expected, &picks);
    }
    // The five round-3 entities, padded to one full group of eight, through the group open.
    let round_3: Vec<_> = recorded.iter().filter(|r| r.1 == 3).collect();
    let group = round_3.iter().cycle().take(8).map(|r| r.0);
    let mut opened = 0;
    streams.for_each_stream(group, 3, |entity, stream| {
        let &&(_, _, expected, w0, w1, w16) =
            round_3.iter().find(|r| r.0 == entity).expect("a recorded entity");
        assert_known(&words(stream, 40), expected, &[(0, w0), (1, w1), (16, w16)]);
        opened += 1;
    });
    assert_eq!(opened, 8);
}

#[test]
fn for_each_stream_matches_stream_in_every_lane() {
    let streams = VertexStreams::new(test_key());
    // 17 entities: lengths 1..=17 run every tail length (0 to 7) after zero, one and two
    // full groups of eight.
    let pool = [
        u64::MAX - 2,
        0,
        u64::MAX,
        17,
        1 << 32,
        u64::MAX - 1,
        99_999,
        3,
        1 << 40,
        1,
        (1 << 32) + 1,
        u64::MAX - 3,
        255,
        1 << 63,
        65_536,
        12_345_678_901,
        2,
    ];
    for len in 1..=pool.len() {
        // Rotate the pool so every entity (reserved ids included) visits every lane.
        for shift in 0..pool.len() {
            let entities: Vec<u64> = (0..len).map(|i| pool[(i + shift) % pool.len()]).collect();
            for round in [0, 5] {
                let mut seen = Vec::new();
                streams.for_each_stream(entities.iter().copied(), round, |entity, stream| {
                    let position = seen.len();
                    assert_eq!(entity, entities[position], "entities arrive in order");
                    let read = words(stream, 37);
                    assert_eq!(
                        read,
                        words(&mut streams.stream(entity, round), 37),
                        "entity {entity} at position {position} of {len}, round {round}"
                    );
                    seen.push(entity);
                });
                assert_eq!(seen, entities);
            }
        }
    }
}
