//! Stackful fibers: what a simulated thread runs on, and every `unsafe`
//! block of the virtual platform.
//!
//! A [`Fiber`] owns a recycled 2 MiB stack and a heap-allocated `Inner`
//! holding the simulated thread's identity ([`WorkerCtx`], placement,
//! recorder shard claim) and the hand-over cells. [`resume`] switches the
//! calling OS thread — the stepping thread — onto a fiber's stack and
//! lends the fiber the run's [`Scheduler`]. A sync point borrows it
//! through [`with_scheduler`] to run its own event in place or to run the
//! event loop; when the loop resumes another thread, [`hand_off`] passes
//! the lend, the stepping thread's saved stack pointer and the reply
//! straight to that thread's fiber and switches onto it. Only the end of
//! a quantum ([`suspend`]) and the end of a body switch back to the
//! stepping thread, whichever fiber the run has reached by then. A switch
//! saves the six callee-saved registers and swaps `rsp` — no syscall, no
//! other OS thread. Because a suspended fiber may next be resumed by a
//! *different* OS thread, nothing the worker depends on may live in OS
//! thread-local storage: whoever switches onto a fiber installs its
//! identity into the three thread-local cells involved and keeps the
//! identity it displaces — the stepping thread's own, or the handing
//! fiber's, which goes back into that fiber's `Inner` — and all three are
//! read only through `#[inline(never)]` accessors, so no thread-local
//! address is ever held across a switch.
//!
//! Only x86_64 Linux is implemented (System V calling convention, `mmap`).

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "mtmpi-sim's simulated threads are fibers, implemented for x86_64 Linux only: \
     port `switch`, `trampoline` and `Stack` in crates/sim/src/virt/fiber.rs"
);

use super::{Reply, Scheduler, WorkerCtx, Yield};
use mtmpi_obs::ShardClaim;
use mtmpi_topology::{CoreId, SocketId};
use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::ptr::{self, NonNull};
use std::sync::Mutex;

/// Usable bytes of a fiber stack: `std::thread`'s default, so a worker
/// body that fitted an OS thread fits a fiber.
const STACK_BYTES: usize = 2 << 20;
/// One `PROT_NONE` page below the stack. Rust's stack probes touch a
/// growing frame page by page, so an overflow always faults here
/// (`SIGSEGV`, process death) before it can reach a neighbouring mapping.
const GUARD_BYTES: usize = 4096;
const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;
/// Most stacks the free list keeps mapped; the rest are unmapped.
const FREE_STACKS_MAX: usize = 256;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

// libc symbols std already links; declared here because the workspace
// builds offline without the `libc` crate.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// Mapped stacks not in use, most recently used last: a recycled stack's
/// touched pages are still resident, so reuse costs neither a syscall nor
/// a page fault, and untouched pages are never pre-faulted.
static FREE_STACKS: Mutex<Vec<Stack>> = Mutex::new(Vec::new());

/// An owned `MAP_BYTES` mapping: guard page at the base, stack above it.
struct Stack(NonNull<u8>);

// SAFETY: a `Stack` is the unique owner of a private anonymous mapping;
// nothing about the mapping is tied to the thread that created it.
unsafe impl Send for Stack {}

impl Stack {
    fn take() -> Stack {
        let recycled = FREE_STACKS.lock().unwrap_or_else(|e| e.into_inner()).pop();
        recycled.unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        // SAFETY: a fresh anonymous private mapping at a kernel-chosen
        // address aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                MAP_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a {MAP_BYTES}-byte fiber stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: `base..base + GUARD_BYTES` is inside the mapping made
        // above, which nothing uses yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(
            rc == 0,
            "mprotect of a fiber stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Stack(NonNull::new(base.cast()).expect("mmap succeeded"))
    }

    fn give(self) {
        let mut free = FREE_STACKS.lock().unwrap_or_else(|e| e.into_inner());
        if free.len() < FREE_STACKS_MAX {
            free.push(self);
            return;
        }
        drop(free);
        // SAFETY: `self` owns exactly this mapping and no fiber runs on
        // it (callers give a stack away only once its fiber has finished
        // or never started). A failure leaks the mapping, nothing else.
        unsafe { munmap(self.0.as_ptr().cast(), MAP_BYTES) };
    }

    /// One past the highest usable byte; page- and so 16-byte aligned.
    fn top(&self) -> *mut usize {
        // SAFETY: `MAP_BYTES` is the size of the mapping `self.0` heads.
        unsafe { self.0.as_ptr().add(MAP_BYTES).cast() }
    }
}

/// Save the callee-saved registers on the current stack, store the
/// resulting `rsp` in `*save`, adopt `to` as `rsp`, and pop the registers
/// the other side saved there. Returns — on the other stack — into
/// whoever last called `switch` from it, or into [`trampoline`] the
/// first time.
///
/// # Safety
/// `to` must be a stack pointer stored by an earlier `switch` out of a
/// context that is still suspended (or the initial frame `Fiber::new`
/// builds), and `save` must be valid for a write.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First code a new fiber runs: move the `Inner` pointer the initial
/// frame left in `rbx` into the first argument register and jump to the
/// entry function in `r12`. The slot above the frame holds a zero return
/// address, so a backtrace out of a fiber ends here.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    core::arch::naked_asm!("mov rdi, rbx", "jmp r12")
}

/// What a fiber owns on the heap. Its address is what OS thread-local
/// storage points at while the fiber runs, and it does not move when the
/// `Fiber` (or the `RunHandle` holding it) does.
struct Inner {
    worker: WorkerCtx,
    /// The simulated thread's placement and recorder shard claim: the
    /// values of `mtmpi_locks`' and `mtmpi_obs`' thread-local cells while
    /// this fiber runs, parked here while it does not.
    core: Cell<Option<(CoreId, SocketId)>>,
    claim: Cell<ShardClaim>,
    body: Cell<Option<Box<dyn FnOnce() + Send>>>,
    /// Whether anything has switched onto the fiber yet: the stepping
    /// thread, or another fiber handing the run on.
    started: Cell<bool>,
    /// `rsp` of the stepping thread inside [`resume`], passed on from
    /// fiber to fiber by [`hand_off`]; a fiber switches back to it.
    host_sp: Cell<*mut u8>,
    /// `rsp` of the fiber while it is suspended.
    fiber_sp: Cell<*mut u8>,
    /// What the fiber resumes with, set by whoever switches onto it.
    reply: Cell<Option<Reply>>,
    /// The scheduler [`resume`] lends the run while the fiber runs; null
    /// while it does not, while [`with_scheduler`] holds it, and during
    /// the abort resume of `Fiber::drop`. [`hand_off`] moves it on.
    sched: Cell<*mut Scheduler>,
    /// Fiber → stepping thread: why it switched back.
    yielded: Cell<Option<Yield>>,
}

/// The address of a fiber's `Inner`, for the scheduler's table: what
/// [`hand_off`] switches to.
#[derive(Clone, Copy)]
pub(super) struct FiberRef(NonNull<Inner>);

// SAFETY: a `FiberRef` is an address. It is dereferenced only by
// `hand_off`, which reads it from the table of the scheduler lent to the
// calling fiber — so on the one OS thread inside that run's
// `RunHandle::step`, while the `RunHandle` owning both the table and the
// `Fiber` whose `Inner` it names is mutably borrowed by that call.
unsafe impl Send for FiberRef {}

thread_local! {
    /// The fiber this OS thread is running, null on a host stack.
    static CURRENT: Cell<*const Inner> = const { Cell::new(ptr::null()) };
}

// Never inlined: a worker body must not keep the address of `CURRENT`
// in a register across a suspension it may return from on another OS
// thread.
#[inline(never)]
fn swap_current(new: *const Inner) -> *const Inner {
    CURRENT.with(|c| c.replace(new))
}

#[inline(never)]
fn current() -> *const Inner {
    CURRENT.with(Cell::get)
}

/// Run `f` with the worker context of the fiber the caller is running on
/// (`None` on a host stack).
pub(super) fn with_worker<R>(f: impl FnOnce(Option<&WorkerCtx>) -> R) -> R {
    // SAFETY: `CURRENT` is non-null only between the two `swap_current`
    // calls of `Fiber::enter`, and then names the fiber running on this OS
    // thread: the one entered, or one `hand_off` passed the run to, which
    // renames it before switching. Either `Inner` is alive — the
    // `RunHandle` owning every `Fiber` of the run is mutably borrowed by
    // the `step` (or its `Fiber` by the `drop`) that entered — and the
    // code reading it runs on that fiber. `Inner` is only ever accessed
    // through shared references, so this one aliases soundly.
    f(unsafe { current().as_ref() }.map(|inner| &inner.worker))
}

/// Run `f` with the scheduler of the run the calling fiber belongs to.
/// The stepping thread is suspended inside [`resume`] meanwhile, and
/// every other fiber of the run is suspended too, so `f` has the
/// scheduler to itself; `f` must not reach a sync point, and [`suspend`]
/// and [`hand_off`] refuse to run while it holds it.
///
/// # Panics
/// If the caller is not running on a fiber, or the fiber holds no
/// scheduler (a nested call, or the abort resume of `Fiber::drop`).
pub(super) fn with_scheduler<R>(f: impl FnOnce(&mut Scheduler) -> R) -> R {
    // SAFETY: as in `with_worker`.
    let inner = unsafe { current().as_ref() }.expect("scheduler outside a simulated thread");
    let lent = inner.sched.replace(ptr::null_mut());
    // SAFETY: a non-null `sched` is the `&mut Scheduler` of the
    // `resume` call running this run, whose host frame is suspended in
    // `switch` and does not touch it until a fiber switches back; it is
    // lent to one fiber at a time (`hand_off` moves it). Taking it out of
    // the cell makes this borrow the only one: a nested call finds null,
    // and `suspend` and `hand_off` — the only ways off this fiber while
    // `f` runs (a panic out of `f` ends the borrow before the fiber's
    // final switch) — panic on null.
    let r = f(unsafe { lent.as_mut() }.expect("the scheduler is not lent to this fiber"));
    inner.sched.set(lent);
    r
}

/// Hand `y` to the stepping thread and suspend the calling fiber until it
/// is resumed — by the stepping thread or by a [`hand_off`]; returns the
/// reply it was resumed with. May return on a different OS thread than
/// it was called on.
///
/// # Panics
/// If the caller is not running on a fiber, or is inside
/// [`with_scheduler`].
pub(super) fn suspend(y: Yield) -> Reply {
    // SAFETY: as in `with_worker`.
    let inner = unsafe { current().as_ref() }.expect("suspend outside a simulated thread");
    assert!(
        !inner.sched.get().is_null(),
        "suspend while the scheduler is borrowed"
    );
    inner.yielded.set(Some(y));
    // SAFETY: we are on `inner`'s fiber (see above), so `host_sp` is what
    // `Fiber::enter`'s `switch` saved when the stepping thread entered
    // this run — passed on by every `hand_off` since — and that frame is
    // still suspended in that call.
    unsafe { switch(inner.fiber_sp.as_ptr(), inner.host_sp.get()) };
    inner.reply.take().expect("resumed without a reply")
}

/// Hand the run from the calling fiber straight to the fiber of thread
/// `to`, which resumes (or starts) with `reply`: the scheduler lend and
/// the stepping thread's stack pointer go with it, the thread-local
/// identity is swapped from the caller's to its, and one switch replaces
/// the two a trip through the stepping thread would cost. Returns the
/// reply the caller is next resumed with, by the stepping thread or by
/// another hand-off; may return on a different OS thread.
///
/// # Panics
/// If the caller is not running on a fiber, or is inside
/// [`with_scheduler`].
pub(super) fn hand_off(to: usize, reply: Reply) -> Reply {
    // SAFETY: as in `with_worker`.
    let from = unsafe { current().as_ref() }.expect("hand-off outside a simulated thread");
    let sched = from.sched.replace(ptr::null_mut());
    assert!(!sched.is_null(), "hand-off while the scheduler is borrowed");
    // SAFETY: `sched` is the lent scheduler (see `with_scheduler`), which
    // nothing borrows now; its table names a live `Inner` of this run for
    // every thread (see `FiberRef`). The scheduler only resumes a thread
    // whose body has not ended, and the caller hands off only to another
    // thread, so `to` is suspended — in `suspend` or `hand_off`, or at its
    // initial frame — and nothing else runs it.
    let to = unsafe { (&(*sched).fibers)[to].0.as_ref() };
    to.reply.set(Some(reply));
    to.sched.set(sched);
    to.host_sp.set(from.host_sp.get());
    to.started.set(true);
    from.core.set(mtmpi_locks::swap_current_core(to.core.get()));
    from.claim.set(mtmpi_obs::swap_shard_claim(
        to.claim.replace(ShardClaim::NONE),
    ));
    swap_current(to);
    // SAFETY: `to.fiber_sp` is its initial frame or what its last
    // `switch` saved (see above), and `CURRENT` and the lend now name it;
    // the caller is suspended here until something switches back onto it.
    unsafe { switch(from.fiber_sp.as_ptr(), to.fiber_sp.get()) };
    from.reply.take().expect("resumed without a reply")
}

/// Entry point of every fiber, reached through [`trampoline`] on the
/// first switch onto it. A panic escaping `worker_main` would abort the
/// process at this `extern "C"` boundary; `worker_main` catches them all.
extern "C" fn fiber_main(inner: *const Inner) -> ! {
    // SAFETY: `Fiber::new` put this fiber's `Inner` in the initial frame;
    // it outlives the fiber's execution (see `Fiber::drop`).
    let inner = unsafe { &*inner };
    let first = inner.reply.take().expect("started without a reply");
    let body = inner.body.take().expect("a fiber starts once");
    let last = super::worker_main(&inner.worker, first, body);
    inner.yielded.set(Some(last));
    // SAFETY: as in `suspend`. This frame is never resumed: `last` is a
    // final yield, after which the stack goes back and `enter` refuses to
    // run.
    unsafe { switch(inner.fiber_sp.as_ptr(), inner.host_sp.get()) };
    unreachable!("a finished fiber was resumed")
}

/// One simulated thread: a worker body, the stack it runs on, and the
/// identity that travels with it.
pub(super) struct Fiber {
    /// `Box::into_raw`; freed in `drop`. Raw because the running fiber
    /// holds the same address.
    inner: NonNull<Inner>,
    /// `None` once the body has finished and the stack went back.
    stack: Option<Stack>,
}

impl Fiber {
    /// A fiber that will run `body` as the simulated thread `worker` when
    /// first resumed.
    ///
    /// # Panics
    /// If no stack can be mapped.
    pub(super) fn new(
        worker: WorkerCtx,
        placement: (CoreId, SocketId),
        body: Box<dyn FnOnce() + Send>,
    ) -> Fiber {
        let stack = Stack::take();
        let inner = Box::into_raw(Box::new(Inner {
            worker,
            core: Cell::new(Some(placement)),
            claim: Cell::new(ShardClaim::NONE),
            body: Cell::new(Some(body)),
            started: Cell::new(false),
            host_sp: Cell::new(ptr::null_mut()),
            fiber_sp: Cell::new(ptr::null_mut()),
            reply: Cell::new(None),
            sched: Cell::new(ptr::null_mut()),
            yielded: Cell::new(None),
        }));
        // The frame `switch` pops on the first resume, lowest address
        // first: r15 r14 r13 r12 rbx rbp, then the address it returns to.
        let frame: [usize; 8] = [
            0,
            0,
            0,
            fiber_main as *const () as usize,
            inner as usize,
            0,
            trampoline as *const () as usize,
            0, // the trampoline's "return address": ends backtraces
        ];
        // SAFETY: the eight words below `top` are inside the stack's
        // writable part, and the stack is unused. `top` is 16-byte
        // aligned, so `trampoline` is entered with `rsp ≡ 8 (mod 16)` as
        // the ABI prescribes after a `call`. `inner` came from
        // `Box::into_raw` just above.
        unsafe {
            let sp = stack.top().sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            (*inner).fiber_sp.set(sp.cast());
        }
        Fiber {
            inner: NonNull::new(inner).expect("Box::into_raw is non-null"),
            stack: Some(stack),
        }
    }

    /// This fiber's entry in the scheduler's table.
    pub(super) fn handle(&self) -> FiberRef {
        FiberRef(self.inner)
    }

    fn is_finished(&self) -> bool {
        self.stack.is_none()
    }

    /// Switch the calling OS thread onto the fiber, handing it `reply`
    /// and lending it `sched` (null: none), until a fiber switches back:
    /// this one, or one the run was handed on to. Returns that fiber's
    /// tid and its yield, with its identity taken back out of
    /// thread-local storage.
    ///
    /// # Panics
    /// If the fiber has finished.
    fn enter(&mut self, reply: Reply, sched: *mut Scheduler) -> (usize, Yield) {
        assert!(!self.is_finished(), "resume of a finished fiber");
        // SAFETY: `inner` is live until `drop`, and only shared
        // references to it are ever formed.
        let inner = unsafe { self.inner.as_ref() };
        inner.started.set(true);
        inner.reply.set(Some(reply));
        inner.sched.set(sched);
        let host_core = mtmpi_locks::swap_current_core(inner.core.get());
        let host_claim = mtmpi_obs::swap_shard_claim(inner.claim.replace(ShardClaim::NONE));
        let outer = swap_current(self.inner.as_ptr());
        // SAFETY: `fiber_sp` is the initial frame or what the fiber's last
        // `switch` saved, and the fiber is suspended there: it has not
        // finished (checked above) and `&mut self` excludes a concurrent
        // resume. `CURRENT` names it, and `sched` — the caller's exclusive
        // borrow, which it cannot use before this call returns — is lent
        // to it, until a fiber switches back; a `hand_off` in between
        // moves both on.
        unsafe { switch(inner.host_sp.as_ptr(), inner.fiber_sp.get()) };
        // SAFETY: a fiber switches back only from `suspend` or
        // `fiber_main`, and `CURRENT` names it then (see `with_worker`).
        let back = unsafe { &*swap_current(outer) };
        back.sched.set(ptr::null_mut());
        back.claim.set(mtmpi_obs::swap_shard_claim(host_claim));
        back.core.set(mtmpi_locks::swap_current_core(host_core));
        let y = back.yielded.take().expect("suspended without a yield");
        (back.worker.tid, y)
    }
}

/// Resume thread `tid` of a run, whose fibers are `fibers` by tid, on the
/// calling OS thread with `reply`, lending the run `sched`, until a fiber
/// switches back: `tid`'s, or one the run was handed on to. Returns that
/// fiber's tid and its yield. A final yield (anything but
/// [`Yield::Stop`]) ended that fiber's body, and its stack goes back.
///
/// # Panics
/// If `tid`'s fiber has finished.
pub(super) fn resume(
    fibers: &mut [Fiber],
    tid: usize,
    reply: Reply,
    sched: &mut Scheduler,
) -> (usize, Yield) {
    let (back, y) = fibers[tid].enter(reply, sched);
    if !matches!(y, Yield::Stop(_)) {
        fibers[back].stack.take().expect("a body ends once").give();
    }
    (back, y)
}

impl Drop for Fiber {
    /// A fiber suspended mid-body is resumed once with [`Reply::Abort`]
    /// and no scheduler, which unwinds the body (`WorkerCtx::sync` raises
    /// `SimAbort` and refuses every later sync point), so its destructors
    /// run before the stack is reused; with no scheduler it hands nothing
    /// on, so it is the fiber that comes back. One never started just
    /// drops its body.
    fn drop(&mut self) {
        // SAFETY: as in `enter`.
        let started = unsafe { self.inner.as_ref() }.started.get();
        if started
            && !self.is_finished()
            && matches!(self.enter(Reply::Abort, ptr::null_mut()).1, Yield::Stop(_))
        {
            // Still suspended mid-body: frames on the stack are live.
            // Leak it and `inner` rather than reuse memory they refer to.
            return;
        }
        if let Some(stack) = self.stack.take() {
            stack.give();
        }
        // SAFETY: `inner` came from `Box::into_raw`; the fiber has
        // finished or never started, so nothing else can reach it.
        drop(unsafe { Box::from_raw(self.inner.as_ptr()) });
    }
}
