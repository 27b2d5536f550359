// Copyright (c) hyperdom authors. Licensed under the MIT license.
//
// Counting replacement of the global allocator, so tests can assert that a
// code region performs no heap allocation: read g_allocation_count before
// and after the region. The replacement operators must be defined once per
// program, at global scope and not inline, so include this header from
// exactly one translation unit; every test binary here is a single .cc
// file.

#ifndef HYPERDOM_TESTS_ALLOC_COUNTER_H_
#define HYPERDOM_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}  // namespace

// GCC pairs the inlined free() below with callers' `new` expressions and
// warns -Wmismatched-new-delete, not seeing that operator new is replaced
// with malloc in this same TU; the pairing is in fact consistent.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // HYPERDOM_TESTS_ALLOC_COUNTER_H_
