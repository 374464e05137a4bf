/**
 * @file
 * Guest execution environment for workload kernels. Each of the 23
 * benchmark kernels runs its real algorithm against this environment:
 * data lives in a guest address space, every load/store goes through
 * typed accessors that record a trace event, and arithmetic work is
 * accounted through compute() gaps. The result is a deterministic
 * memory-reference trace with the genuine locality of the algorithm,
 * plus the initial NVM image and the expected final memory state the
 * crash-consistency oracle checks against.
 */

#ifndef WLCACHE_WORKLOADS_GUEST_ENV_HH
#define WLCACHE_WORKLOADS_GUEST_ENV_HH

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace wlcache {
namespace workloads {

/** The guest address space, allocator, and trace recorder. */
class GuestEnv
{
  public:
    /**
     * @param seed Seed for workload input generation.
     * @param data_base Guest data segment base address.
     * @param heap_bytes Guest heap capacity. Memory grows with the
     *     heap actually allocated, up to this limit.
     */
    explicit GuestEnv(std::uint64_t seed, Addr data_base = 0x0010'0000,
                      std::size_t heap_bytes = 4u << 20);

    /** Bump-allocate @p bytes aligned to @p align (power of two). */
    Addr alloc(std::size_t bytes, std::size_t align = 8);

    /** Typed load: records a trace event. */
    template <typename T>
    T
    load(Addr addr)
    {
        static_assert(sizeof(T) <= 8);
        T v{};
        std::memcpy(&v, ptr(addr, sizeof(T)), sizeof(T));
        record(MemOp::Load, addr, sizeof(T), toBits(v));
        return v;
    }

    /** Typed store: records a trace event. */
    template <typename T>
    void
    store(Addr addr, T v)
    {
        static_assert(sizeof(T) <= 8);
        std::memcpy(ptr(addr, sizeof(T)), &v, sizeof(T));
        record(MemOp::Store, addr, sizeof(T), toBits(v));
    }

    /**
     * Initialize memory without recording a trace event: models data
     * present in the NVM image before the program starts (inputs,
     * constant tables).
     */
    template <typename T>
    void
    init(Addr addr, T v)
    {
        static_assert(sizeof(T) <= 8);
        std::memcpy(ptr(addr, sizeof(T)), &v, sizeof(T));
        markInit(addr, sizeof(T));
    }

    /**
     * Account @p n non-memory instructions before the next access.
     * The next access fatal()s if they add up to more than
     * kMaxComputeGap.
     */
    void compute(unsigned n) { gap_ += n; }

    /** Deterministic input-generation RNG. */
    Rng &rng() { return rng_; }

    /**
     * Flush any trailing compute gap into a final trace event and
     * trim the events to their exact size: recording is over.
     */
    void finish();

    // --- Results ------------------------------------------------------------

    // Each result's rvalue overload moves it out of a finished env:
    // std::move(env).trace().

    const std::vector<MemAccess> &trace() const & { return trace_; }
    std::vector<MemAccess> trace() && { return std::move(trace_); }

    Addr dataBase() const { return data_base_; }

    /**
     * Initial NVM image: the allocated heap with its init() data
     * (un-initialized bytes are zero, matching NVM).
     */
    const std::vector<std::uint8_t> &initialImage() const & { return initial_; }
    std::vector<std::uint8_t> initialImage() && { return std::move(initial_); }

    /** Final expected heap contents after a crash-free run. */
    const std::vector<std::uint8_t> &finalImage() const & { return backing_; }
    std::vector<std::uint8_t> finalImage() && { return std::move(backing_); }

  private:
    /** Host pointer to a checked, aligned guest access. */
    std::uint8_t *ptr(Addr addr, unsigned bytes)
    {
        const std::size_t off = static_cast<std::size_t>(addr - data_base_);
        if (addr < data_base_ || off + bytes > backing_.size() ||
            addr % bytes != 0)
            badAccess(addr, bytes);
        return backing_.data() + off;
    }

    /** Append a trace event carrying the pending compute gap. */
    void record(MemOp op, Addr addr, unsigned bytes, std::uint64_t v)
    {
        if (gap_ > kMaxComputeGap)
            gapTooLong(addr);
        MemAccess ev;
        ev.computeGap = static_cast<std::uint16_t>(gap_);
        ev.op = op;
        ev.size = static_cast<AccessSize>(bytes);
        ev.addr = static_cast<std::uint32_t>(addr);
        ev.value = v;
        trace_.push_back(ev);
        gap_ = 0;
    }

    /** ptr()'s failure: panics naming the check @p addr fails. */
    [[noreturn]] void badAccess(Addr addr, unsigned bytes) const;
    /** record()'s failure: fatal() on an over-long compute gap. */
    [[noreturn]] void gapTooLong(Addr addr) const;
    void markInit(Addr addr, unsigned bytes);

    template <typename T>
    static std::uint64_t
    toBits(T v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(T));
        return bits;
    }

    Addr data_base_;
    std::size_t heap_limit_;
    std::vector<std::uint8_t> backing_;
    std::vector<std::uint8_t> initial_;
    std::vector<MemAccess> trace_;
    Rng rng_;
    std::uint64_t gap_ = 0;
};

/**
 * Typed guest array view: the workhorse for writing kernels against
 * GuestEnv without sprinkling address arithmetic everywhere.
 */
template <typename T>
class GArray
{
  public:
    GArray(GuestEnv &env, std::size_t n)
        : env_(&env), base_(env.alloc(n * sizeof(T), sizeof(T))), n_(n)
    {
    }

    /** Traced element read. */
    T
    get(std::size_t i) const
    {
        wlc_assert(i < n_);
        return env_->load<T>(base_ + i * sizeof(T));
    }

    /** Traced element write. */
    void
    set(std::size_t i, T v)
    {
        wlc_assert(i < n_);
        env_->store<T>(base_ + i * sizeof(T), v);
    }

    /** Untraced initialization (input data in the NVM image). */
    void
    initAt(std::size_t i, T v)
    {
        wlc_assert(i < n_);
        env_->init<T>(base_ + i * sizeof(T), v);
    }

    std::size_t size() const { return n_; }

  private:
    GuestEnv *env_;
    Addr base_;
    std::size_t n_;
};

} // namespace workloads
} // namespace wlcache

#endif // WLCACHE_WORKLOADS_GUEST_ENV_HH
