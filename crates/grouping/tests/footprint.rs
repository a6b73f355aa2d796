//! What a base costs to keep, counted by the allocator.
//!
//! This binary installs a counting `#[global_allocator]` — which is why it
//! is a test target of its own, holding one test: nothing else allocates
//! while it measures — builds the end-to-end harness's `cluster` shape (a
//! collection that does not compact: every group a group of one) and
//! checks the live heap bytes the base holds per indexed subsequence. A
//! group of one owns no heap and keeps no sketch, so that is its 8-byte
//! slot of a column block — first member's series and start — and its
//! bit of the block's bitmap; with a 12-byte reference and a pointer in
//! every slot it took 20, with the first member's sketch in the slot 41,
//! a 48-byte record with a 24-byte sketch handle beside it 72, a private
//! copy of each representative takes it back above 300.
//!
//! It then extends that base by one series and checks what the append
//! asked of the allocator — the blocks it writes to, not a copy of every
//! column (which is 23 MB requested to leave 0.4 MB more live) — and
//! what the writer's resident index costs an entry. Last, a collection
//! that does compact: the member lists admissions grew by doubling are
//! given back their slack when the build finishes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use onex_grouping::{BaseBuilder, BaseConfig, OnexBase, RepresentativePolicy, ResidentIndex};
use onex_tseries::gen::{clustered_dataset, random_walk, random_walk_dataset, SyntheticConfig};
use onex_tseries::{Dataset, TimeSeries};

/// The system allocator, with the requested bytes currently live — and
/// every byte ever requested — summed on the side.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counter
// is a statistic beside the calls and publishes no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
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
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes `build` leaves behind, and what it built.
fn held_by<T>(build: impl FnOnce() -> T) -> (isize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    let built = build();
    (LIVE.load(Ordering::Relaxed) - before, built)
}

fn builder(policy: RepresentativePolicy) -> BaseBuilder {
    let config = BaseConfig {
        policy,
        ..BaseConfig::new(1.0, 16, 24)
    };
    BaseBuilder::new(config).unwrap()
}

fn build(dataset: &Dataset, policy: RepresentativePolicy) -> OnexBase {
    builder(policy).build(dataset).0
}

const MB: f64 = 1024.0 * 1024.0;

#[test]
fn a_base_that_does_not_compact_holds_its_records_and_nothing_else() {
    // The harness's `cluster` / `ingest` collection: 48 random walks of
    // 256 points, lengths 16..=24, ST 1.0.
    let dataset = random_walk_dataset(SyntheticConfig {
        series: 48,
        len: 256,
        seed: 1,
    });

    let (held, base) = held_by(|| build(&dataset, RepresentativePolicy::Seed));
    let subsequences = base.member_count();
    assert_eq!(subsequences, 102_384);
    assert!(
        base.group_count() * 10 > subsequences * 9,
        "the shape stopped being one that does not compact: {} groups",
        base.group_count()
    );
    let per_subsequence = held as f64 / subsequences as f64;
    println!("seed: {held} live bytes, {per_subsequence:.1} per subsequence");
    // 8.5 as measured (20.4 with a reference and a pointer a slot), held
    // to 1.25 times that.
    assert!(
        per_subsequence <= 10.7,
        "{per_subsequence:.1} live heap bytes per indexed subsequence ({held} in all)"
    );

    // The running system reports the same thing without an allocator hook.
    let footprint = base.footprint();
    println!("seed: {footprint:?}");
    let estimate = footprint.total() as f64;
    assert!(
        (estimate - held as f64).abs() <= 0.15 * held as f64,
        "footprint() says {estimate} bytes, the allocator counted {held}"
    );
    // Every representative is read in place; only the few groups of two
    // and more own anything — a record, a member list and a plane block.
    assert_eq!(footprint.owned_representatives, 0);
    assert!(footprint.member_lists + footprint.sketches < footprint.group_records / 4);

    // A centroid drifts, but only once a second member moves it: the
    // groups of one read their window in place here too, and the same
    // data costs a mean for each of the few groups of two and more.
    let (centroid_held, centroid) = held_by(|| build(&dataset, RepresentativePolicy::Centroid));
    let means = centroid.footprint().owned_representatives;
    println!(
        "centroid: {centroid_held} live bytes, {:.1} per subsequence, {means} in means",
        centroid_held as f64 / subsequences as f64
    );
    let drifted = || centroid.iter().filter(|(_, g)| g.cardinality() > 1);
    let samples: usize = drifted().map(|(_, g)| g.len()).sum();
    assert!(
        drifted().count() > 50,
        "{} groups drifted",
        drifted().count()
    );
    assert!(
        means >= 8 * samples && means <= 8 * samples + 16 * drifted().count(),
        "{means} bytes of means for {samples} samples"
    );
    // 8.6 as measured, held to 1.25 times that.
    assert!(centroid_held as f64 <= 10.8 * subsequences as f64);
    let centroid_estimate = centroid.footprint().total() as f64;
    assert!(
        (centroid_estimate - centroid_held as f64).abs() <= 0.15 * centroid_held as f64,
        "footprint() says {centroid_estimate} bytes, the allocator counted {centroid_held}"
    );
    drop(centroid);

    // One appended series through a warm resident index, as the engine's
    // writer does it once a second on `ingest`: 2 133 windows into 102 k
    // groups. The first extension seeds the index and is not measured.
    let builder = builder(RepresentativePolicy::Seed);
    let mut dataset = dataset;
    let mut resident = ResidentIndex::new();
    assert_eq!(resident.resident_bytes(), 0);
    let push = |dataset: &mut Dataset, name: &str, seed: u64| {
        dataset
            .push(TimeSeries::new(name, random_walk(256, 1.0, seed)))
            .unwrap();
    };
    push(&mut dataset, "warm-up", 1_001);
    let (published, _) = builder
        .extend_resident(&base, &dataset, &mut resident)
        .unwrap();
    drop(base);
    push(&mut dataset, "measured", 1_002);
    let (requested, live) = (
        REQUESTED.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    );
    let (next, report) = builder
        .extend_resident(&published, &dataset, &mut resident)
        .unwrap();
    let requested = (REQUESTED.load(Ordering::Relaxed) - requested) as f64 / MB;
    // The retired epoch goes once its last reader does.
    drop(published);
    let grew = (LIVE.load(Ordering::Relaxed) - live) as f64 / MB;
    println!(
        "append: {requested:.3} MB requested, {grew:.3} MB more live, {} of {} blocks copied",
        report.blocks_copied, report.blocks_total
    );
    assert_eq!(next.member_count(), subsequences + 2 * 2_133);
    // 0.232 and 0.038 as measured (0.290 and 0.063 with 20-byte slots,
    // with a sketch in every slot 0.40 and 0.11; two columns of records
    // and handles read 0.50 and 0.22), each held to 1.25 times that.
    assert!(
        requested <= 0.29,
        "one append asked the allocator for {requested:.3} MB"
    );
    assert!(grew <= 0.048, "one append left {grew:.3} MB more live");
    assert!(report.blocks_copied * 4 < report.blocks_total);

    // What the writer keeps between appends: under `Seed` no
    // representative moves, so an entry is its 12 bytes — a group id and
    // four 16-bit codes — in its row's planes (grown by an eighth), a
    // share of its cell and its row, and no directory.
    let entries = resident.entries();
    assert_eq!(entries, next.group_count());
    let estimate = resident.resident_bytes();
    let live = LIVE.load(Ordering::Relaxed);
    drop(resident);
    let index = live - LIVE.load(Ordering::Relaxed);
    println!(
        "resident index: {index} live bytes, {:.1} an entry; resident_bytes() says {estimate}",
        index as f64 / entries as f64
    );
    // 17.4 as measured (17.0 before the run tables by offset, 25.4 with
    // four `f32` means an entry), held to 1.25 times the 17.0.
    assert!(
        index as f64 <= 21.3 * entries as f64,
        "{index} live bytes for {entries} entries"
    );
    assert!(
        (estimate as f64 - index as f64).abs() <= 0.15 * index as f64,
        "resident_bytes() says {estimate}, the allocator counted {index}"
    );

    // The base, and a view taken from it, read their windows through the
    // handles the columns keep: the dataset can go.
    let len = next.lengths().next().unwrap();
    let group = next.groups_for_len(len).at(7);
    let window = dataset.resolve(group.members().at(0)).unwrap().to_vec();
    drop(dataset);
    assert_eq!(group.representative(), window);
    let sum: f64 = next.iter().map(|(_, g)| g.representative()[0]).sum();
    assert!(sum.is_finite());
    drop(next);

    // The harness's `explore` collection at a quarter of its series:
    // eight shape families, lengths 30..=32, a few groups of hundreds of
    // members. Every member list is held at its length — at capacity it
    // was half as much again — and footprint() still matches the count. A
    // member is its 8-byte record and its 21 bytes of sketch planes.
    let clustered = clustered_dataset(
        SyntheticConfig {
            series: 32,
            len: 512,
            seed: 1,
        },
        8,
        0.08,
    );
    let explore = BaseBuilder::new(BaseConfig {
        policy: RepresentativePolicy::Seed,
        ..BaseConfig::new(1.0, 30, 32)
    })
    .unwrap();
    let (held, base) = held_by(|| explore.build(&clustered).0);
    let listed: usize = base
        .iter()
        .map(|(_, g)| g.cardinality())
        .filter(|&members| members > 1)
        .sum();
    let footprint = base.footprint();
    let per_subsequence = held as f64 / base.member_count() as f64;
    println!("clustered: {held} live bytes, {per_subsequence:.1} per subsequence, {footprint:?}");
    assert!(listed * 10 > base.member_count() * 9, "the shape compacts");
    // 29.3 as measured (33.5 with 12-byte member records), held to 1.25
    // times that.
    assert!(
        per_subsequence <= 36.6,
        "{per_subsequence:.1} live heap bytes per subsequence of the clustered shape"
    );
    assert_eq!(
        footprint.member_lists,
        listed * 8,
        "member lists counted at length, 8 B a member: series and start"
    );
    let estimate = footprint.total() as f64;
    assert!(
        (estimate - held as f64).abs() <= 0.15 * held as f64,
        "footprint() says {estimate} bytes, the allocator counted {held}"
    );
}
