// Counting replacements for the global allocation functions, following
// tests/flow_scratch_test.cc: every form of operator new bumps the calling
// thread's counter; the whole replaceable set is overridden so sanitizer
// builds see matching new/delete pairs.
#include <cstdlib>
#include <new>

#include "common.h"

namespace {
thread_local int64_t t_allocs = 0;

void* CountedAlloc(std::size_t size) {
  ++t_allocs;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

namespace perfbench {
int64_t AllocsThisThread() { return t_allocs; }
}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
