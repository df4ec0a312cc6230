//! A live leaderboard built on the snapshot-capable Harris list (`VcasList`).
//!
//! Game servers insert and remove score entries concurrently; the frontend repeatedly opens
//! a snapshot view and asks it for the top of the table (a successors query) and for the
//! entry at rank 100. Because both queries read one snapshot, the rendered leaderboard is
//! always a state the table actually passed through.
//!
//! Run with `cargo run --release --example leaderboard_top_k`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use vcas_repro::structures::{HarrisList, MapSnapshotView};

fn main() {
    // Keys are scores (higher is better); we store `u64::MAX - score` so that ascending key
    // order is descending score order and "top k" is a successors query from 0.
    let board = Arc::new(HarrisList::new_versioned_default());
    let stop = Arc::new(AtomicBool::new(false));

    let mut servers = Vec::new();
    for server in 0..3u64 {
        let board = board.clone();
        let stop = stop.clone();
        servers.push(std::thread::spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(server);
            let mut submitted = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let score = rng.gen_range(0..1_000_000u64);
                let player = rng.gen_range(0..10_000u64);
                if rng.gen_bool(0.8) {
                    board.insert(u64::MAX / 2 - score, player);
                } else {
                    board.remove(u64::MAX / 2 - score);
                }
                submitted += 1;
            }
            submitted
        }));
    }

    for frame in 0..6 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Atomic top-5: one snapshot serves every row of the rendered table.
        let view = board.view();
        let top = view.successors(0, 5);
        println!("frame {frame}: top {} entries", top.len());
        for (rank, (key, player)) in top.iter().enumerate() {
            println!("  #{:<2} player {:>5}  score {}", rank + 1, player, u64::MAX / 2 - key);
        }
        // "Who is exactly at rank 100?" — the 100th pair of the same snapshot; the walk
        // stops there instead of scanning the rest.
        let rank_100 = view.iter().nth(99);
        if let Some((key, player)) = rank_100 {
            println!("  rank 100: player {player} with score {}", u64::MAX / 2 - key);
            assert_eq!(top.len(), 5, "a snapshot with 100 entries has a top 5");
        }
    }

    stop.store(true, Ordering::Relaxed);
    let submitted: u64 = servers.into_iter().map(|h| h.join().unwrap()).sum();
    println!(
        "servers submitted {submitted} score updates; board now has {} entries",
        board.view().len()
    );
}
