//! What one query asks of the allocator, counted.
//!
//! This binary installs a counting `#[global_allocator]` — which is why it
//! is a test target of its own, holding one test: nothing else allocates
//! while it counts. A search keeps the buffers it grows with the
//! collection (phase 1's ranking and suffix maxima, a slot a group; the
//! DP rows; the L0 survivors) in a per-thread scratch, so once a thread
//! has run a query its later queries allocate for their `k`: a bounded
//! number of blocks, none of them large, and no more on a collection four
//! times the size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use onex_core::{LengthSelection, Onex, QueryOptions};
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_tseries::gen::{random_walk_dataset, SyntheticConfig};

/// The system allocator, counting — while [`COUNTING`] is set — the
/// blocks asked for and the largest of them.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counters
// are statistics beside the calls and publish no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above under this `layout`, as `dealloc`'s contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Matches a query asks for.
const K: usize = 5;
/// Points in a query window: the middle of the indexed lengths.
const QUERY_LEN: usize = 20;
/// Queries run before counting, and counted.
const WARM_UP: usize = 4;
const COUNTED: usize = 8;
/// No block a warm query asks for may reach this.
const LARGE: usize = 64 << 10;

/// Per counted query: the blocks it asked for, and the largest.
fn counted_queries(series: usize, len: usize, lengths: (usize, usize)) -> Vec<(usize, usize)> {
    let ds = random_walk_dataset(SyntheticConfig {
        series,
        len,
        seed: 17,
    });
    let config = BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, lengths.0, lengths.1)
    };
    let (engine, _) = Onex::build(ds.clone(), config).expect("valid config");
    let query = |i: usize| {
        let sid = (i * 7) % series;
        let start = (i * 37) % (len - QUERY_LEN);
        let values = ds.series(sid as u32).expect("series exists").values();
        let opts = QueryOptions::default()
            .lengths(LengthSelection::Nearest(3))
            .excluding_series(Some(sid as u32));
        (values[start..start + QUERY_LEN].to_vec(), opts)
    };
    let queries: Vec<_> = (0..WARM_UP + COUNTED).map(query).collect();
    let mut counts = Vec::with_capacity(COUNTED);
    for (i, (values, opts)) in queries.iter().enumerate() {
        BLOCKS.store(0, Ordering::Relaxed);
        LARGEST.store(0, Ordering::Relaxed);
        COUNTING.store(i >= WARM_UP, Ordering::Relaxed);
        let (matches, _) = engine.k_best(values, K, opts).expect("valid query");
        COUNTING.store(false, Ordering::Relaxed);
        assert_eq!(matches.len(), K);
        if i >= WARM_UP {
            counts.push((
                BLOCKS.load(Ordering::Relaxed),
                LARGEST.load(Ordering::Relaxed),
            ));
        }
    }
    counts
}

#[test]
fn a_warm_query_allocates_for_its_k_not_for_the_collection() {
    // The `cluster` shape (48 x 256 random walks, lengths 16..=24), then
    // 200 x 512 walks over the three lengths a 20-point query searches
    // under `Nearest(3)`: ≈ 11 k against ≈ 98 k groups a length.
    let small = counted_queries(48, 256, (16, 24));
    let large = counted_queries(200, 512, (19, 21));
    let most = |counts: &[(usize, usize)]| counts.iter().map(|c| c.0).max().unwrap_or(0);
    let largest = |counts: &[(usize, usize)]| counts.iter().map(|c| c.1).max().unwrap_or(0);
    println!(
        "48x256: at most {} blocks a query, the largest {} B; 200x512: {} blocks, {} B",
        most(&small),
        largest(&small),
        most(&large),
        largest(&large)
    );
    for (shape, counts) in [("48x256", &small), ("200x512", &large)] {
        assert!(most(counts) <= 64, "{shape}: {counts:?}");
        assert!(largest(counts) < LARGE, "{shape}: {counts:?}");
    }
    assert!(
        most(&large) <= most(&small),
        "the count grew with the collection: {small:?} -> {large:?}"
    );
}
