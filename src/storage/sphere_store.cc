// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "storage/sphere_store.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <new>
#include <ostream>

namespace hyperdom {

namespace {

// Cache-line alignment for the coordinate arena: rows of consecutive slots
// share lines cleanly and the base pointer satisfies any vector ISA the
// compiler targets under HYPERDOM_NATIVE.
constexpr size_t kArenaAlign = 64;

// Allocates room for `rows` rows of `dim` doubles. Throws std::bad_alloc,
// as the radii vector does, when the byte size overflows size_t (checked
// before anything is allocated) or the allocation fails.
double* AllocateArena(size_t rows, size_t dim) {
  if (rows == 0 || dim == 0) return nullptr;
  // std::aligned_alloc requires the size to be a multiple of the alignment.
  constexpr size_t kMaxDoubles =
      (std::numeric_limits<size_t>::max() - (kArenaAlign - 1)) /
      sizeof(double);
  if (rows > kMaxDoubles / dim) throw std::bad_alloc();
  size_t bytes = rows * dim * sizeof(double);
  bytes = (bytes + kArenaAlign - 1) / kArenaAlign * kArenaAlign;
  void* p = std::aligned_alloc(kArenaAlign, bytes);
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<double*>(p);
}

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

SphereStore::SphereStore(const SphereStore& other)
    : dim_(other.dim_),
      size_(other.size_),
      capacity_(other.size_),
      radii_(other.radii_) {
  coords_ = AllocateArena(size_, dim_);
  if (coords_ != nullptr) {
    std::memcpy(coords_, other.coords_, size_ * dim_ * sizeof(double));
  }
}

SphereStore& SphereStore::operator=(const SphereStore& other) {
  if (this == &other) return *this;
  SphereStore copy(other);
  *this = std::move(copy);
  return *this;
}

SphereStore::SphereStore(SphereStore&& other) noexcept
    : dim_(other.dim_),
      size_(other.size_),
      capacity_(other.capacity_),
      coords_(other.coords_),
      radii_(std::move(other.radii_)) {
  other.size_ = 0;
  other.capacity_ = 0;
  other.coords_ = nullptr;
}

SphereStore& SphereStore::operator=(SphereStore&& other) noexcept {
  if (this == &other) return *this;
  std::free(coords_);
  dim_ = other.dim_;
  size_ = other.size_;
  capacity_ = other.capacity_;
  coords_ = other.coords_;
  radii_ = std::move(other.radii_);
  other.size_ = 0;
  other.capacity_ = 0;
  other.coords_ = nullptr;
  return *this;
}

SphereStore::~SphereStore() { std::free(coords_); }

void SphereStore::GrowTo(size_t min_spheres) {
  if (capacity_ >= min_spheres) return;
  size_t next = capacity_ == 0 ? 16 : capacity_ * 2;
  if (next < min_spheres) next = min_spheres;
  double* grown = AllocateArena(next, dim_);
  if (size_ > 0) {
    std::memcpy(grown, coords_, size_ * dim_ * sizeof(double));
  }
  std::free(coords_);
  coords_ = grown;
  capacity_ = next;
}

void SphereStore::Reserve(size_t n) {
  if (dim_ == 0) return;  // adopt dim on first Add before sizing the arena
  GrowTo(n);
  radii_.reserve(n);
}

uint32_t SphereStore::Add(const Hypersphere& s) {
  return Add(s.center().data(), s.center().size(), s.radius());
}

uint32_t SphereStore::Add(const double* center, size_t dim, double radius) {
  if (dim_ == 0) dim_ = dim;
  assert(dim == dim_ && "SphereStore: dimension mismatch");
  assert(size_ < UINT32_MAX && "SphereStore: slot space exhausted");
  GrowTo(size_ + 1);
  std::memcpy(coords_ + size_ * dim_, center, dim_ * sizeof(double));
  radii_.push_back(radius);
  return static_cast<uint32_t>(size_++);
}

Hypersphere SphereStore::Materialize(uint32_t slot) const {
  const double* row = center(slot);
  return Hypersphere(Point(row, row + dim_), radii_[slot]);
}

Status SphereStore::SerializeTo(std::ostream& out) const {
  WritePod(out, static_cast<uint64_t>(dim_));
  WritePod(out, static_cast<uint64_t>(size_));
  for (size_t i = 0; i < size_; ++i) {
    out.write(reinterpret_cast<const char*>(coords_ + i * dim_),
              static_cast<std::streamsize>(dim_ * sizeof(double)));
    WritePod(out, radii_[i]);
  }
  if (!out) return Status::IOError("sphere store serialization stream failed");
  return Status::OK();
}

Status SphereStore::DeserializeFrom(std::istream& in, SphereStore* out) {
  uint64_t dim = 0;
  uint64_t size = 0;
  if (!ReadPod(in, &dim) || !ReadPod(in, &size)) {
    return Status::Corruption("sphere store header truncated");
  }
  if ((dim == 0 && size > 0) || dim > (1u << 20)) {
    return Status::Corruption("sphere store dimension implausible");
  }
  if (size > (uint64_t{1} << 32)) {
    return Status::Corruption("sphere store size implausible");
  }
  SphereStore store(static_cast<size_t>(dim));
  std::vector<double> row(static_cast<size_t>(dim));
  for (uint64_t i = 0; i < size; ++i) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(double)));
    double radius = 0.0;
    if (!in || !ReadPod(in, &radius)) {
      return Status::Corruption("sphere store record truncated");
    }
    for (double c : row) {
      if (!std::isfinite(c)) {
        return Status::Corruption("sphere store coordinate not finite");
      }
    }
    if (!std::isfinite(radius) || radius < 0.0) {
      return Status::Corruption("sphere store radius invalid");
    }
    store.Add(row.data(), row.size(), radius);
  }
  *out = std::move(store);
  return Status::OK();
}

}  // namespace hyperdom
