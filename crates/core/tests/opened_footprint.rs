//! What an engine keeps on the heap, by how it came up.
//!
//! This binary installs a counting `#[global_allocator]` — which is why it
//! is a test target of its own, holding one test: nothing else allocates
//! while it counts. An engine opened from a base image
//! (`Onex::open_bytes`), or one that took the image as a shipped base
//! (`Onex::install_base`), decodes the image whole and drops its bytes:
//! it keeps what an engine built over the same dataset keeps, within a
//! tenth, and not the image beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use onex_core::Onex;
use onex_grouping::persist::save_v2;
use onex_grouping::{BaseConfig, RepresentativePolicy};
use onex_tseries::gen::{clustered_dataset, random_walk_dataset, SyntheticConfig};
use onex_tseries::Dataset;

/// The system allocator, keeping the bytes live on the heap.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counter
// is a statistic beside the calls and publishes no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above under this `layout`, as `dealloc`'s contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How much more an opened or installed engine may keep than a built one.
const SLACK: f64 = 1.1;

/// Heap bytes `make` leaves live: what the engine it returns keeps, the
/// dataset's samples excluded (every engine here shares them).
fn kept(make: impl FnOnce() -> Onex) -> (Onex, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let engine = make();
    let after = LIVE.load(Ordering::Relaxed);
    (engine, (after - before).max(0) as usize)
}

/// Built, opened and installed engines over `dataset` under `config`:
/// their heap bytes, each of the latter two within [`SLACK`] of the
/// built one's.
fn footprints(what: &str, dataset: &Dataset, config: BaseConfig) -> [usize; 3] {
    let (built, built_bytes) = kept(|| Onex::build(dataset.clone(), config.clone()).unwrap().0);
    let image = save_v2(&built.base());
    let (opened, opened_bytes) = kept(|| Onex::open_bytes(image.clone(), dataset.clone()).unwrap());
    // A shard comes up with a base of one coarse length, then takes the
    // image as its deployed base.
    let coarse = BaseConfig::new(4.0, config.min_len, config.min_len);
    let (installed, installed_bytes) = kept(|| {
        let (shard, _) = Onex::build(dataset.clone(), coarse).unwrap();
        shard.install_base(image.clone()).unwrap();
        shard
    });
    for (how, bytes) in [("opened", opened_bytes), ("installed", installed_bytes)] {
        assert!(
            bytes as f64 <= SLACK * built_bytes as f64,
            "{what}: an {how} engine keeps {bytes} bytes against {built_bytes} built \
             ({:.2}x; image {} bytes)",
            bytes as f64 / built_bytes as f64,
            image.len()
        );
    }
    for engine in [&opened, &installed] {
        assert!(
            *engine.base() == *built.base(),
            "{what}: not the built base"
        );
    }
    [built_bytes, opened_bytes, installed_bytes]
}

#[test]
fn an_opened_engine_keeps_what_a_built_one_does() {
    // The `cluster` benchmark shape: random walks, lengths 16..=24, few
    // groups of more than one.
    let walks = random_walk_dataset(SyntheticConfig {
        series: 48,
        len: 256,
        seed: 7,
    });
    let seed = |st, lo, hi| BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(st, lo, hi)
    };
    let [built, ..] = footprints("cluster shape", &walks, seed(1.0, 16, 24));
    assert!(built > 0);

    // A small clustered collection that compacts: a few shape families,
    // large groups with sketch planes, under either policy.
    let families = clustered_dataset(
        SyntheticConfig {
            series: 24,
            len: 128,
            seed: 11,
        },
        4,
        0.08,
    );
    footprints("clustered, seed", &families, seed(1.0, 20, 24));
    let centroid = BaseConfig::new(1.0, 20, 24);
    footprints("clustered, centroid", &families, centroid);
}
