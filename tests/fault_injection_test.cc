// I/O fault injection: the injector itself, and the crash-safety
// acceptance criterion — a SaveIndexes interrupted at EVERY possible
// fault point (EIO and torn-write flavors) must leave the directory
// loadable: either the previous generation (fault before manifest
// publication) or the new one (fault after).

#include "common/fault_injection.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "common/io_util.h"
#include "core/database.h"
#include "datagen/synthetic.h"

namespace ksp {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto kb = GenerateKnowledgeBase(SyntheticProfile::DBpediaLike(400));
    ASSERT_TRUE(kb.ok());
    kb_ = std::move(*kb);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = (std::filesystem::temp_directory_path() /
             ("ksp_fault_" + std::string(info->name()) + "_" +
              std::to_string(::getpid())))
                .string();
    pristine_ = root_ + "/pristine";
    work_ = root_ + "/work";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(pristine_);

    db_ = std::make_unique<KspDatabase>(kb_.get());
    db_->PrepareAll(2);
    ASSERT_TRUE(db_->SaveIndexes(pristine_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void ResetWorkDir() {
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);
    for (const auto& entry :
         std::filesystem::directory_iterator(pristine_)) {
      std::filesystem::copy(entry.path(),
                            work_ + "/" + entry.path().filename().string());
    }
  }

  /// The invariant under test: whatever a fault did to the directory, a
  /// fresh database must load a complete index set from it.
  void AssertDirectoryLoadable() {
    KspDatabase restored(kb_.get());
    auto status = restored.LoadIndexes(work_);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(restored.has_rtree());
    EXPECT_NE(restored.reachability_index(), nullptr);
    EXPECT_NE(restored.alpha_index(), nullptr);
  }

  std::unique_ptr<KnowledgeBase> kb_;
  std::unique_ptr<KspDatabase> db_;
  std::string root_;
  std::string pristine_;
  std::string work_;
};

TEST_F(FaultInjectionTest, NthOperationAndAllLaterOnesFail) {
  std::filesystem::create_directories(work_);
  FaultInjectingFileSystem fs(DefaultFileSystem());
  fs.FailAfter(1);
  auto first = fs.NewWritableFile(work_ + "/probe");  // Op 0: fine.
  ASSERT_TRUE(first.ok());
  auto second = fs.NewWritableFile(work_ + "/probe2");  // Op 1: fails.
  EXPECT_TRUE(second.status().IsIOError());
  auto third = fs.NewWritableFile(work_ + "/probe3");  // Still failing.
  EXPECT_TRUE(third.status().IsIOError());
  EXPECT_EQ(fs.faults_injected(), 2);
  fs.Disarm();
  auto fourth = fs.NewWritableFile(work_ + "/probe4");
  EXPECT_TRUE(fourth.ok());
}

TEST_F(FaultInjectionTest, ShortWriteLeavesTornPrefix) {
  std::filesystem::create_directories(work_);
  FaultInjectingFileSystem fs(DefaultFileSystem());
  auto file = fs.NewWritableFile(work_ + "/torn");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("intact").ok());
  fs.FailAfter(0, FaultInjectingFileSystem::FailureMode::kShortWrite);
  EXPECT_TRUE((*file)->Append("01234567").IsIOError());
  fs.Disarm();
  (void)(*file)->Close();
  EXPECT_EQ(std::filesystem::file_size(work_ + "/torn"), 6u + 4u);
}

TEST_F(FaultInjectionTest, SaveInterruptedAtEveryFaultPointStaysLoadable) {
  // Pass 1 (disarmed): count the operations of one full re-save on top of
  // an existing generation.
  ResetWorkDir();
  FaultInjectingFileSystem fs(DefaultFileSystem());
  ASSERT_TRUE(db_->SaveIndexes(work_, &fs).ok());
  const int64_t total_ops = fs.ops_counted();
  ASSERT_GT(total_ops, 10);

  // Pass 2: replay with a fault injected at every single operation.
  for (auto mode : {FaultInjectingFileSystem::FailureMode::kEIO,
                    FaultInjectingFileSystem::FailureMode::kShortWrite}) {
    for (int64_t fault_at = 0; fault_at < total_ops; ++fault_at) {
      ResetWorkDir();
      fs.ResetCounter();
      fs.FailAfter(fault_at, mode);
      auto status = db_->SaveIndexes(work_, &fs);
      fs.Disarm();
      EXPECT_GE(fs.faults_injected(), 1)
          << "fault point " << fault_at << " never reached";
      if (!status.ok()) {
        // Clean failure, never a crash or a mystery code.
        EXPECT_TRUE(status.IsIOError() || status.IsCorruption())
            << status.ToString();
      }
      // Whether the save died before publication (previous generation
      // intact) or after (new generation live), the directory loads.
      AssertDirectoryLoadable();
    }
  }
}

TEST_F(FaultInjectionTest, InterruptedFirstSaveLeavesDirectoryEmptyEnough) {
  // No previous generation: a fault during the very first save must leave
  // either the full generation or no MANIFEST at all (a clean IOError
  // that leaves the database unprepared), never a poisoned
  // half-generation.
  std::filesystem::create_directories(work_);
  FaultInjectingFileSystem fs(DefaultFileSystem());
  ASSERT_TRUE(db_->SaveIndexes(work_, &fs).ok());
  const int64_t total_ops = fs.ops_counted();

  for (int64_t fault_at = 0; fault_at < total_ops; ++fault_at) {
    std::filesystem::remove_all(work_);
    std::filesystem::create_directories(work_);
    fs.ResetCounter();
    fs.FailAfter(fault_at);
    auto status = db_->SaveIndexes(work_, &fs);
    fs.Disarm();
    KspDatabase restored(kb_.get());
    auto load = restored.LoadIndexes(work_);
    if (status.ok() || load.ok()) {
      // The MANIFEST rename landed: the full generation is present.
      ASSERT_TRUE(load.ok()) << "fault at " << fault_at << ": "
                             << load.ToString();
      EXPECT_TRUE(restored.has_rtree());
      EXPECT_NE(restored.alpha_index(), nullptr);
    } else {
      EXPECT_TRUE(load.IsIOError()) << "fault at " << fault_at << ": "
                                    << load.ToString();
      EXPECT_NE(load.message().find("no MANIFEST"), std::string::npos)
          << load.ToString();
      EXPECT_FALSE(restored.has_rtree());
    }
  }
}

TEST_F(FaultInjectionTest, ReadFaultDuringLoadFailsCleanAndUnprepared) {
  ResetWorkDir();
  FaultInjectingFileSystem fs(DefaultFileSystem());

  // Count a clean load's operations, then fail each one in turn.
  KspDatabase counter(kb_.get());
  ASSERT_TRUE(counter.LoadIndexes(work_, &fs).ok());
  const int64_t total_ops = fs.ops_counted();
  ASSERT_GT(total_ops, 0);

  for (int64_t fault_at = 0; fault_at < total_ops; ++fault_at) {
    fs.ResetCounter();
    fs.FailAfter(fault_at);
    KspDatabase restored(kb_.get());
    auto status = restored.LoadIndexes(work_, &fs);
    fs.Disarm();
    ASSERT_FALSE(status.ok()) << "fault at " << fault_at;
    EXPECT_TRUE(status.IsIOError() || status.IsCorruption())
        << status.ToString();
    // No half-loaded index set survives a failed load.
    EXPECT_FALSE(restored.has_rtree()) << "fault at " << fault_at;
    EXPECT_EQ(restored.reachability_index(), nullptr);
    EXPECT_EQ(restored.alpha_index(), nullptr);
  }
}

}  // namespace
}  // namespace ksp
